type algorithm =
  | Bal_sep_alg
  | Par_bal_sep_alg
  | Local_bip_alg
  | Global_bip_alg

let algorithm_name = function
  | Bal_sep_alg | Par_bal_sep_alg -> "BalSep"
  | Local_bip_alg -> "LocalBIP"
  | Global_bip_alg -> "GlobalBIP"

type verdict =
  | Yes of Decomp.t * algorithm
  | No of algorithm
  | All_timeout

(* Winner identity per portfolio run, and — in [race] — how long losers
   take to notice the winner's cancellation (Kit.Metrics; recorded only
   when enabled). *)
let m_win_balsep = Kit.Metrics.counter "portfolio.wins.balsep"
let m_win_localbip = Kit.Metrics.counter "portfolio.wins.localbip"
let m_win_globalbip = Kit.Metrics.counter "portfolio.wins.globalbip"
let m_all_timeout = Kit.Metrics.counter "portfolio.all_timeout"
let m_member_crash = Kit.Metrics.counter "portfolio.member_crash"
let m_cancel_latency = Kit.Metrics.timer "portfolio.cancel_latency"
let m_cancelled = Kit.Metrics.counter "portfolio.cancelled_members"

let record_verdict v =
  (match v with
  | Yes (_, alg) | No alg ->
      Kit.Metrics.incr
        (match alg with
        | Bal_sep_alg | Par_bal_sep_alg -> m_win_balsep
        | Local_bip_alg -> m_win_localbip
        | Global_bip_alg -> m_win_globalbip)
  | All_timeout -> Kit.Metrics.incr m_all_timeout);
  v

let default_budget () = Kit.Deadline.none

let solve alg ~deadline h ~k =
  match alg with
  | Bal_sep_alg | Par_bal_sep_alg -> Bal_sep.solve ~deadline h ~k
  | Local_bip_alg ->
      let { Local_bip.outcome; exact } = Local_bip.solve ~deadline h ~k in
      { Bal_sep.outcome; exact }
  | Global_bip_alg ->
      let { Global_bip.outcome; exact } = Global_bip.solve ~deadline h ~k in
      { Bal_sep.outcome; exact }

let fault_site alg =
  match alg with
  | Bal_sep_alg | Par_bal_sep_alg -> "portfolio.balsep"
  | Local_bip_alg -> "portfolio.localbip"
  | Global_bip_alg -> "portfolio.globalbip"

(* Each member runs inside a Guard boundary: a member that crashes (or is
   killed by the fault harness, or trips the memory budget) records one
   portfolio.member_crash and simply contributes no verdict — the
   survivors still race to an answer, matching the paper's "first answer
   wins, losers are discarded" protocol under partial failure. *)
let decide alg ~deadline h ~k =
  match
    Kit.Guard.run (fun () ->
        Kit.Fault.hit (fault_site alg);
        solve alg ~deadline h ~k)
  with
  | Kit.Outcome.Ok { Bal_sep.outcome; exact } -> (
      match outcome with
      | Detk.Decomposition d -> Some (Yes (d, alg))
      | Detk.No_decomposition when exact -> Some (No alg)
      | Detk.No_decomposition | Detk.Timeout -> None)
  | Kit.Outcome.Timeout -> None
  | Kit.Outcome.Out_of_memory | Kit.Outcome.Stack_overflow
  | Kit.Outcome.Crash _ ->
      Kit.Metrics.incr m_member_crash;
      None

let order = [ Bal_sep_alg; Local_bip_alg; Global_bip_alg ]

let check ?(budget = default_budget) ?(members = order) h ~k =
  let rec first = function
    | [] -> All_timeout
    | alg :: rest -> (
        match decide alg ~deadline:(budget ()) h ~k with
        | Some v -> v
        | None -> first rest)
  in
  record_verdict (first members)

let race ?(budget = default_budget) ?(members = order) h ~k =
  let flag = Kit.Deadline.new_cancel () in
  (* Wall-clock instant the winner pulled the flag: written before the
     cancel itself, so any loser that observed a cancelled flag also sees
     a valid timestamp and can report how long cancellation took to land. *)
  let cancel_at = Atomic.make neg_infinity in
  let run alg =
    let deadline = Kit.Deadline.with_cancel flag (budget ()) in
    let v = decide alg ~deadline h ~k in
    (* First exact verdict wins: abort the siblings at their next
       Deadline.check. Losers surface as timeouts, exactly as if their
       budget had run out. A loser never records search metrics after its
       flag is pulled — Deadline.check raises before any counter in the
       solver cores ticks — so its only post-cancellation traces are the
       two scheduler-side portfolio metrics below. *)
    if v <> None then begin
      Atomic.set cancel_at (Unix.gettimeofday ());
      Kit.Deadline.cancel flag
    end
    else if Kit.Deadline.is_cancelled flag then begin
      Kit.Metrics.incr m_cancelled;
      let t0 = Atomic.get cancel_at in
      if t0 > neg_infinity then
        Kit.Metrics.add_seconds m_cancel_latency (Unix.gettimeofday () -. t0)
    end;
    v
  in
  let results =
    Kit.Pool.run_result ~jobs:(List.length members) run (Array.of_list members)
  in
  (* Reduce in the fixed algorithm order, not arrival order, so that ties
     between near-simultaneous finishers resolve deterministically. A
     member slot that somehow failed outside the Guard boundary counts as
     a crashed member, never as a reason to abort the race. *)
  let rec pick i =
    if i >= Array.length results then All_timeout
    else
      match results.(i) with
      | Ok (Some v) -> v
      | Ok None -> pick (i + 1)
      | Error _ ->
          Kit.Metrics.incr m_member_crash;
          pick (i + 1)
  in
  record_verdict (pick 0)

let race_isolated ?(budget = default_budget) ?(members = order) ?mem_mb ?wall
    h ~k =
  (* One forked worker per member. The first decisive frame pulls the
     plug on the others with SIGKILL — no cooperative Deadline.check
     required of the losers, which is the whole point: a member stuck in
     a tight pivot loop cannot outlive the winner. Killed losers come
     back as [Timeout], exactly as if their budget had run out. *)
  let completions =
    Kit.Proc.run ~jobs:(List.length members) ?mem_mb
      ?wall:(Option.map (fun w ~attempt:_ -> w) wall)
      ~halt_on:(function Kit.Outcome.Ok (Some _) -> true | _ -> false)
      (fun ~attempt:_ alg -> decide alg ~deadline:(budget ()) h ~k)
      (Array.of_list members)
  in
  (* Reduce in the fixed algorithm order (same tie-break as [race]). A
     member whose process died abnormally counts as a crashed member,
     never as a reason to abort the race. *)
  let rec pick i =
    if i >= Array.length completions then All_timeout
    else
      match completions.(i).Kit.Proc.outcome with
      | Kit.Outcome.Ok (Some v) -> v
      | Kit.Outcome.Ok None | Kit.Outcome.Timeout -> pick (i + 1)
      | Kit.Outcome.Out_of_memory | Kit.Outcome.Stack_overflow
      | Kit.Outcome.Crash _ ->
          Kit.Metrics.incr m_member_crash;
          pick (i + 1)
  in
  record_verdict (pick 0)

let ghw_improvement ?budget h ~hw =
  if hw <= 2 then `Not_improvable (* hw <= 2 implies ghw = hw, §6.4 *)
  else
    match check ?budget h ~k:(hw - 1) with
    | Yes (d, _) -> `Improved (hw - 1, d)
    | No _ -> `Not_improvable
    | All_timeout -> `Unknown
