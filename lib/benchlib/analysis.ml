type verdict = [ `Yes | `No | `Timeout ]

type hw_run = { k : int; outcome : verdict; seconds : float }

type hw_status = Exact of int | Upper of int | Open_above of int

type record = {
  instance : Instance.t;
  profile : Hg.Properties.profile;
  hw_runs : hw_run list;
  hw : hw_status;
  hd : Decomp.t option;
  stats : Kit.Metrics.snapshot;
}

let default_budget () = Kit.Deadline.of_seconds 1.0

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Instances are independent, so every runner fans its per-instance loop
   out over a domain pool. [budget] must therefore produce a fresh
   deadline on every call and be safe to call from any domain (the
   defaults are). Results come back in input order regardless of [jobs]. *)
let pool_map ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> Kit.Config.jobs () in
  Kit.Pool.map_list ~jobs f xs

let analyze_one ~budget ~max_k ?cache (inst : Instance.t) =
  let h = inst.Instance.hg in
  let profile = Hg.Properties.profile ~deadline:(budget ()) h in
  (* With a cache, each Check(HD,k) level first consults the store (a
     validated hit replays the witness through the checker inside
     Result_cache.find); definitive verdicts from a real solve are
     written back. Timeouts stay uncached — they depend on the budget,
     not the instance. *)
  let solve k =
    match cache with
    | None -> Detk.solve ~deadline:(budget ()) h ~k
    | Some c -> (
        match Result_cache.find c h ~meth:"hd" ~k with
        | Some (Result_cache.Yes d) -> Detk.Decomposition d
        | Some Result_cache.No -> Detk.No_decomposition
        | None ->
            let o = Detk.solve ~deadline:(budget ()) h ~k in
            (match o with
            | Detk.Decomposition d ->
                Result_cache.store c h ~meth:"hd" ~k (Result_cache.Yes d)
            | Detk.No_decomposition ->
                Result_cache.store c h ~meth:"hd" ~k Result_cache.No
            | Detk.Timeout -> ());
            o)
  in
  let rec levels k acc had_timeout =
    if k > max_k then (List.rev acc, Open_above max_k, None)
    else begin
      let outcome, seconds = timed (fun () -> solve k) in
      match outcome with
      | Detk.Decomposition d ->
          let run = { k; outcome = `Yes; seconds } in
          let status = if had_timeout then Upper k else Exact k in
          (List.rev (run :: acc), status, Some d)
      | Detk.No_decomposition ->
          levels (k + 1) ({ k; outcome = `No; seconds } :: acc) had_timeout
      | Detk.Timeout ->
          levels (k + 1) ({ k; outcome = `Timeout; seconds } :: acc) true
    end
  in
  (* [local_delta] works because the pool runs each instance wholly on
     one domain, so this domain's store only moves for our own work. *)
  let (hw_runs, hw, hd), stats =
    Kit.Metrics.local_delta (fun () -> levels 1 [] false)
  in
  { instance = inst; profile; hw_runs; hw; hd; stats }

let analyze ?(budget = default_budget) ?(max_k = 8) ?jobs ?cache instances =
  pool_map ?jobs (analyze_one ~budget ~max_k ?cache) instances

type task = {
  task_instance : Instance.t;
  attempts : int;
  result : record Kit.Outcome.t;
}

let analyze_outcomes ?(budget = default_budget) ?budget_for ?retries ?mem_mb
    ?(max_k = 8) ?jobs ?isolate ?wall ?cache ?on_done instances =
  let retries = match retries with Some r -> r | None -> Kit.Config.retries () in
  let budget_for =
    match budget_for with Some bf -> bf | None -> fun ~attempt:_ -> budget
  in
  let isolate =
    match isolate with Some b -> b | None -> Kit.Config.isolate ()
  in
  if isolate then begin
    (* Hard isolation: each attempt runs in a forked worker under
       Kit.Proc's wall-clock watchdog and memory rlimit. Proc owns the
       retry ladder (re-dispatching with attempt + 1) and the Guard
       wrapper, so the task body is just the fault site plus the
       k-ladder; the deadline still escalates through [budget_for]. *)
    let tasks = Array.of_list instances in
    let task_of c =
      {
        task_instance = tasks.(c.Kit.Proc.index);
        attempts = c.Kit.Proc.attempts;
        result = c.Kit.Proc.outcome;
      }
    in
    Kit.Proc.run ?jobs ?mem_mb ~retries ?wall
      ?on_done:(Option.map (fun f c -> f (task_of c)) on_done)
      (fun ~attempt (inst : Instance.t) ->
        let budget = budget_for ~attempt in
        Kit.Fault.hit ("instance." ^ inst.Instance.name);
        (* The cache handle is a plain directory path, so it survives the
           fork; hits/stores happen in the worker process. *)
        analyze_one ~budget ~max_k ?cache inst)
      tasks
    |> Array.to_list |> List.map task_of
    |> List.map (fun t ->
           (* The worker's own metrics store died with its process; its
              per-instance delta travelled back inside the record, so
              replaying it here keeps the global totals equal to an
              in-process run (failed instances lose their partial
              counters — they report no record to carry them). *)
           (match t.result with
           | Kit.Outcome.Ok r -> Kit.Metrics.absorb r.stats
           | _ -> ());
           t)
  end
  else
  pool_map ?jobs
    (fun (inst : Instance.t) ->
      (* Attempt 0 runs on the base budget; each retry escalates through
         [budget_for], so a transient fault or a too-tight budget gets a
         second chance while a deterministic crash fails the same way and
         is recorded after the last attempt. *)
      let rec attempt i =
        let budget = budget_for ~attempt:i in
        let result =
          Kit.Guard.run ?mem_mb (fun () ->
              Kit.Fault.hit ("instance." ^ inst.Instance.name);
              analyze_one ~budget ~max_k ?cache inst)
        in
        match result with
        | Kit.Outcome.Ok _ -> { task_instance = inst; attempts = i + 1; result }
        | _ when i < retries -> attempt (i + 1)
        | _ -> { task_instance = inst; attempts = i + 1; result }
      in
      let t = attempt 0 in
      (match on_done with Some f -> f t | None -> ());
      t)
    instances

let hw_bound r =
  match r.hw with Exact k | Upper k -> Some k | Open_above _ -> None

type ghd_run = {
  algorithm : Ghd.Portfolio.algorithm;
  outcome : verdict;
  seconds : float;
}

type ghd_record = {
  name : string;
  from_k : int;
  target_k : int;
  runs : ghd_run list;
  combined : verdict;
  combined_seconds : float;
  stats : Kit.Metrics.snapshot;
}

let ghd_comparison ?(budget = default_budget) ?(ks = [ 3; 4; 5; 6 ]) ?jobs
    records =
  List.filter_map Fun.id
  @@ pool_map ?jobs
       (fun r ->
      match hw_bound r with
      | Some k when List.mem k ks ->
          let h = r.instance.Instance.hg in
          let target_k = k - 1 in
          let run alg =
            let { Ghd.Bal_sep.outcome; exact }, seconds =
              timed (fun () ->
                  Ghd.Portfolio.solve alg ~deadline:(budget ()) h ~k:target_k)
            in
            let v : verdict =
              match outcome with
              | Detk.Decomposition _ -> `Yes
              | Detk.No_decomposition -> if exact then `No else `Timeout
              | Detk.Timeout -> `Timeout
            in
            { algorithm = alg; outcome = v; seconds }
          in
          let runs, stats =
            Kit.Metrics.local_delta (fun () ->
                List.map run Ghd.Portfolio.order)
          in
          let decided =
            List.filter (fun x -> x.outcome <> `Timeout) runs
            |> List.sort (fun a b -> compare a.seconds b.seconds)
          in
          let combined, combined_seconds =
            match decided with
            | [] -> (`Timeout, 0.0)
            | best :: _ -> (best.outcome, best.seconds)
          in
          Some
            {
              name = r.instance.Instance.name;
              from_k = k;
              target_k;
              runs;
              combined;
              combined_seconds;
              stats;
            }
      | _ -> None)
    records

type frac_record = {
  name : string;
  hw : int;
  improve_width : float;
  frac_improve_width : float option;
}

let fractional ?(budget = default_budget) ?(step = 0.1) ?jobs records =
  List.filter_map Fun.id
  @@ pool_map ?jobs
       (fun r ->
      match (hw_bound r, r.hd) with
      | Some hw, Some hd ->
          let h = r.instance.Instance.hg in
          let improve_width = Fhd.Improve_hd.improved_width h hd in
          let frac_improve_width =
            match Fhd.Frac_improve_hd.best ~deadline:(budget ()) ~step h ~k:hw with
            | Some (_, w) -> Some w
            | None -> None
            | exception Kit.Deadline.Timed_out -> None
          in
          Some
            { name = r.instance.Instance.name; hw; improve_width; frac_improve_width }
      | _ -> None)
    records
