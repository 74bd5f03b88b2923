exception Timed_out

type cancel = bool Atomic.t

type kind =
  | No_limit
  | Wall of float (* absolute deadline *)
  | Fuel of int Atomic.t

type t = { kind : kind; cancel : cancel }

let now () = Unix.gettimeofday ()

(* Wall-clock polling is amortised over a domain-local tick counter (one
   counter per domain, shared by every deadline that domain checks) so that
   a deadline value can be handed to several domains without races. *)
let ticks_key = Domain.DLS.new_key (fun () -> ref 0)

let new_cancel () : cancel = Atomic.make false

let none = { kind = No_limit; cancel = new_cancel () }
let of_seconds s = { kind = Wall (now () +. s); cancel = new_cancel () }
let of_fuel n = { kind = Fuel (Atomic.make n); cancel = new_cancel () }

let cancel c = Atomic.set c true
let is_cancelled c = Atomic.get c
let with_cancel c t = { t with cancel = c }

let cancelled t = is_cancelled t.cancel

let expired t =
  is_cancelled t.cancel
  ||
  match t.kind with
  | No_limit -> false
  | Wall d -> now () >= d
  | Fuel r -> Atomic.get r <= 0

let check t =
  (* Fault-injection site: "force a raise at the Nth deadline poll" lets
     tests crash a search at an arbitrary depth. Free when disarmed. *)
  if Fault.armed () then Fault.hit "deadline.poll";
  if is_cancelled t.cancel then raise Timed_out;
  match t.kind with
  | No_limit -> ()
  | Fuel r ->
      (* The budget admits n checks: the caller seeing the old value 1 (the
         nth) raises, as do all later callers (old value <= 0). *)
      if Atomic.fetch_and_add r (-1) <= 1 then raise Timed_out
  | Wall d ->
      let ticks = Domain.DLS.get ticks_key in
      incr ticks;
      if !ticks land 1023 = 0 && now () >= d then raise Timed_out

let fuel_remaining t =
  match t.kind with
  | Fuel r -> Some (Stdlib.max 0 (Atomic.get r))
  | No_limit | Wall _ -> None
