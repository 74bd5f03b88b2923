(* Per-subsystem circuit breaker: closed -> open after [threshold]
   consecutive failures, half-open after a cooldown that doubles (capped)
   on every re-open, closed again on a successful probe. *)

type state = Closed | Open | Half_open

type t = {
  threshold : int;
  base_cooldown : float;
  max_cooldown : float;
  now : unit -> float;
  mu : Mutex.t;
  mutable st : state;
  mutable consecutive : int;  (* failures since the last success *)
  mutable opened_at : float;
  mutable cooldown : float;  (* current open interval *)
  mutable probing : bool;  (* a half-open probe is in flight *)
  m_opened : Kit.Metrics.counter;
  m_closed : Kit.Metrics.counter;
  m_rejected : Kit.Metrics.counter;
}

let create ?(now = Unix.gettimeofday) ?(threshold = 5) ?(cooldown = 1.0)
    ?(max_cooldown = 30.0) name =
  {
    threshold = max 1 threshold;
    base_cooldown = Float.max cooldown 0.001;
    max_cooldown = Float.max max_cooldown cooldown;
    now;
    mu = Mutex.create ();
    st = Closed;
    consecutive = 0;
    opened_at = neg_infinity;
    cooldown = Float.max cooldown 0.001;
    probing = false;
    m_opened = Kit.Metrics.counter ("serve.breaker." ^ name ^ ".opened");
    m_closed = Kit.Metrics.counter ("serve.breaker." ^ name ^ ".closed");
    m_rejected = Kit.Metrics.counter ("serve.breaker." ^ name ^ ".rejected");
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

(* Due for a half-open probe? Must be called with the lock held. *)
let refresh t =
  if t.st = Open && t.now () >= t.opened_at +. t.cooldown then t.st <- Half_open

let state t =
  locked t (fun () ->
      refresh t;
      t.st)

let retry_after t =
  locked t (fun () ->
      refresh t;
      match t.st with
      | Closed -> 0.
      | Half_open -> t.base_cooldown
      | Open -> Float.max (t.opened_at +. t.cooldown -. t.now ()) 0.001)

let acquire t =
  locked t (fun () ->
      refresh t;
      match t.st with
      | Closed -> `Proceed
      | Half_open when not t.probing ->
          t.probing <- true;
          `Probe
      | Half_open | Open ->
          Kit.Metrics.incr t.m_rejected;
          `Reject
            (match t.st with
            | Open -> Float.max (t.opened_at +. t.cooldown -. t.now ()) 0.001
            | _ -> t.base_cooldown))

let success t =
  locked t (fun () ->
      refresh t;
      if t.st <> Closed then Kit.Metrics.incr t.m_closed;
      t.st <- Closed;
      t.consecutive <- 0;
      t.cooldown <- t.base_cooldown;
      t.probing <- false)

(* Open (or re-open) with the current cooldown, then double it for next
   time. Must be called with the lock held. *)
let trip t =
  if t.st <> Open then Kit.Metrics.incr t.m_opened;
  t.st <- Open;
  t.opened_at <- t.now ();
  t.probing <- false;
  t.cooldown <- Float.min t.max_cooldown t.cooldown

let failure t =
  locked t (fun () ->
      refresh t;
      t.consecutive <- t.consecutive + 1;
      match t.st with
      | Half_open ->
          (* failed probe: back off harder *)
          t.cooldown <- Float.min t.max_cooldown (t.cooldown *. 2.);
          trip t
      | Closed when t.consecutive >= t.threshold -> trip t
      | Closed | Open -> ())

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"
