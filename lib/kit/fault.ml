type kind = Crash | Oom | Kill | Truncate | Hang | Stall | Reset | Torn

let is_net = function
  | Stall | Reset | Torn -> true
  | Crash | Oom | Kill | Truncate | Hang -> false

exception Injected of string

type trigger =
  | Nth of int  (* fire once, at the Nth global hit *)
  | Prob of float * int  (* probability, seed *)
  | Nth_cut of int * int  (* truncate: at the Nth hit, keep B bytes *)

type clause = {
  kind : kind;
  site : string;
  trigger : trigger;
  count : int Atomic.t;
}

(* The armed clause list. Immutable once installed, so readers need no
   lock; only the per-clause hit counters move. *)
let state : clause list Atomic.t = Atomic.make []

let kind_name = function
  | Crash -> "crash"
  | Oom -> "oom"
  | Kill -> "kill"
  | Truncate -> "truncate"
  | Hang -> "hang"
  | Stall -> "stall"
  | Reset -> "reset"
  | Torn -> "torn"

let parse_clause s =
  let fail m = Error (Printf.sprintf "bad fault clause %S: %s" s m) in
  match String.index_opt s '@' with
  | None -> fail "missing '@'"
  | Some at -> (
      let kind =
        match String.sub s 0 at with
        | "crash" -> Some Crash
        | "oom" -> Some Oom
        | "kill" -> Some Kill
        | "truncate" -> Some Truncate
        | "hang" -> Some Hang
        | "stall" -> Some Stall
        | "reset" -> Some Reset
        | "torn" -> Some Torn
        | _ -> None
      in
      match kind with
      | None ->
          fail "unknown kind (crash|oom|kill|truncate|hang|stall|reset|torn)"
      | Some kind -> (
          let rest = String.sub s (at + 1) (String.length s - at - 1) in
          match String.index_opt rest ':' with
          | None -> fail "missing ':trigger'"
          | Some col -> (
              let site = String.sub rest 0 col in
              let trig = String.sub rest (col + 1) (String.length rest - col - 1) in
              if site = "" then fail "empty site"
              else
                let mk trigger =
                  Ok { kind; site; trigger; count = Atomic.make 0 }
                in
                match kind, trig with
                | Truncate, _ -> (
                    match String.index_opt trig 'x' with
                    | None -> fail "truncate trigger must be NxB"
                    | Some x -> (
                        let n = String.sub trig 0 x in
                        let b =
                          String.sub trig (x + 1) (String.length trig - x - 1)
                        in
                        match (int_of_string_opt n, int_of_string_opt b) with
                        | Some n, Some b when n >= 1 && b >= 0 -> mk (Nth_cut (n, b))
                        | _ -> fail "truncate trigger must be NxB"))
                | _, _ when String.length trig > 1 && trig.[0] = 'p' -> (
                    let body = String.sub trig 1 (String.length trig - 1) in
                    let p, seed =
                      match String.index_opt body ':' with
                      | None -> (float_of_string_opt body, Some 0)
                      | Some c ->
                          let ps = String.sub body 0 c in
                          let ss = String.sub body (c + 1) (String.length body - c - 1) in
                          ( float_of_string_opt ps,
                            if String.length ss > 1 && ss.[0] = 's' then
                              int_of_string_opt
                                (String.sub ss 1 (String.length ss - 1))
                            else None )
                    in
                    match (p, seed) with
                    | Some p, Some s when p >= 0.0 && p <= 1.0 -> mk (Prob (p, s))
                    | _ -> fail "probabilistic trigger must be pF[:sS]")
                | _, _ -> (
                    match int_of_string_opt trig with
                    | Some n when n >= 1 -> mk (Nth n)
                    | _ -> fail "trigger must be a positive hit number"))))

let parse spec =
  let clauses =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (( <> ) "")
  in
  List.fold_left
    (fun acc c ->
      match (acc, parse_clause c) with
      | Error _, _ -> acc
      | Ok l, Ok cl -> Ok (cl :: l)
      | Ok _, (Error _ as e) -> e)
    (Ok []) clauses
  |> Result.map List.rev

let validate spec = Result.map ignore (parse spec)

let configure spec =
  match parse spec with
  | Ok clauses ->
      Atomic.set state clauses;
      Ok ()
  | Error _ as e ->
      Atomic.set state [];
      e

let clear () = Atomic.set state []

let armed () = Atomic.get state <> []

(* SplitMix-style avalanche over (seed, site, hit number): deterministic
   at every domain count, since the global hit counter hands out the same
   numbers whatever the interleaving. *)
let mix seed site n =
  (* 63-bit truncations of the SplitMix64 / FNV constants. *)
  let h = ref (0x1E3779B97F4A7C15 lxor (seed * 0x2545F4914F6CDD1D)) in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001B3) site;
  h := !h lxor (n * 0x7F51AFD7ED558CCD);
  h := (!h lxor (!h lsr 33)) * 0x44CEB9FE1A85EC53;
  h := !h lxor (!h lsr 29);
  !h land max_int

let fires clause n =
  match clause.trigger with
  | Nth k -> n = k
  | Nth_cut (k, _) -> n = k
  | Prob (p, seed) ->
      float_of_int (mix seed clause.site n land 0xFFFFFF)
      /. float_of_int 0x1000000
      < p

let hit site =
  match Atomic.get state with
  | [] -> ()
  | clauses ->
      List.iter
        (fun c ->
          if c.site = site && c.kind <> Truncate && not (is_net c.kind) then begin
            let n = 1 + Atomic.fetch_and_add c.count 1 in
            if fires c n then begin
              match c.kind with
              | Oom -> raise Out_of_memory
              | Hang ->
                  (* Busy-loop without ever polling Deadline.check: only a
                     wall-clock watchdog (Kit.Proc) can stop this, which is
                     exactly what it exists to prove. *)
                  while true do
                    ignore (Sys.opaque_identity 0)
                  done
              | Crash | Kill ->
                  raise
                    (Injected
                       (Printf.sprintf "injected %s at %s (hit %d)"
                          (kind_name c.kind) site n))
              | Truncate | Stall | Reset | Torn -> ()
            end
          end)
        clauses

(* Network-fault query: unlike [hit], nothing is raised — the wire layer
   asks whether an armed stall/reset/torn clause fires at this site and
   acts the fault out itself (sleeping past a timeout, closing a socket
   mid-write). First firing clause in spec order wins; every net clause
   at the site still counts its hit, so a spec with several clauses keeps
   deterministic hit numbering whether or not an earlier one fires. *)
let net site =
  match Atomic.get state with
  | [] -> None
  | clauses ->
      List.fold_left
        (fun acc c ->
          if c.site = site && is_net c.kind then begin
            let n = 1 + Atomic.fetch_and_add c.count 1 in
            if acc = None && fires c n then Some c.kind else acc
          end
          else acc)
        None clauses

let cut site =
  match Atomic.get state with
  | [] -> None
  | clauses ->
      List.fold_left
        (fun acc c ->
          if c.site = site && c.kind = Truncate then begin
            let n = 1 + Atomic.fetch_and_add c.count 1 in
            match c.trigger with
            | Nth_cut (k, b) when n = k -> Some b
            | _ -> acc
          end
          else acc)
        None clauses
