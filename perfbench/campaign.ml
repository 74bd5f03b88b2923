(* The [campaign] workload: the paper's Tables 1-6 protocol run through
   the public phase functions, in order, as a batch user would.

   Repository.build -> Analysis.analyze -> Analysis.ghd_comparison
   -> Analysis.fractional

   The instance set is the fixed HyperBench-style repository (the
   library's default seed, fixed scale) and every Check run gets the same fuel budget, so
   every verdict and every search counter is a pure function of the
   input. The benchmark seed permutes the order in which the instances
   reach the domain pool: it changes the schedule, never the answers.
   No result cache and no journal are used. *)

open Bstat

let scale = 1.0
let fuel = 50_000
let jobs = 2

let budget () = Kit.Deadline.of_fuel fuel

(* What one pass produced, straight from the phase functions. *)
type pass = {
  build_s : float;
  hw_s : float;
  ghd_s : float;
  frac_s : float;
  wall_s : float;
  records : Benchlib.Analysis.record list;
  ghd : Benchlib.Analysis.ghd_record list;
  frac : Benchlib.Analysis.frac_record list;
  deltas : (string * (string * int) list) list;
      (* phase -> counter deltas (traced passes only) *)
}

let counters_of_interest =
  [ "detk.subproblems"; "detk.memo_hits"; "detk.memo_misses";
    "balsep.separators_tried"; "balsep.balance_rejections";
    "subedges.generated"; "lp.solves"; "lp.pivots" ]

let counter_delta before after =
  List.map
    (fun c -> (c, Kit.Metrics.get after c - Kit.Metrics.get before c))
    counters_of_interest

let shuffled ~seed xs =
  let a = Array.of_list xs in
  Kit.Rng.shuffle (Kit.Rng.create seed) a;
  Array.to_list a

(* One pass over the four phases. Each phase is one span; the counter
   snapshot around it gives that phase's search effort. *)
let run_pass ~seed ~n ~traced =
  Kit.Metrics.enabled := traced;
  tracing := traced;
  let deltas = ref [] in
  let phase root name f =
    span ~parent:root ~req:n name (fun _ ->
        let before = if traced then Kit.Metrics.snapshot () else Kit.Metrics.empty in
        let r, s = timed f in
        if traced then
          deltas := (name, counter_delta before (Kit.Metrics.snapshot ())) :: !deltas;
        (r, s))
  in
  let it, wall_s =
    timed (fun () ->
        span ~req:n "campaign.iteration" (fun root ->
            let insts, build_s =
              phase root "repository.build" (fun () ->
                  shuffled ~seed
                    (Benchlib.Repository.build ~scale ()))
            in
            let records, hw_s =
              phase root "experiments.hw" (fun () ->
                  Benchlib.Analysis.analyze ~budget ~jobs insts)
            in
            let ghd, ghd_s =
              phase root "experiments.ghd" (fun () ->
                  Benchlib.Analysis.ghd_comparison ~budget ~jobs records)
            in
            let frac, frac_s =
              phase root "experiments.frac" (fun () ->
                  Benchlib.Analysis.fractional ~budget ~jobs records)
            in
            (build_s, hw_s, ghd_s, frac_s, records, ghd, frac)))
  in
  tracing := false;
  Kit.Metrics.enabled := false;
  let build_s, hw_s, ghd_s, frac_s, records, ghd, frac = it in
  { build_s; hw_s; ghd_s; frac_s; wall_s; records; ghd; frac; deltas = !deltas }

(* ---- answers ---------------------------------------------------------- *)

let verdict_name = function `Yes -> "yes" | `No -> "no" | `Timeout -> "timeout"

let hw_runs p = List.concat_map (fun r -> r.Benchlib.Analysis.hw_runs) p.records

let ghd_runs p =
  List.concat_map (fun (g : Benchlib.Analysis.ghd_record) -> g.runs) p.ghd

let undecided p =
  List.length
    (List.filter (fun (r : Benchlib.Analysis.hw_run) -> r.outcome = `Timeout) (hw_runs p))
  + List.length
      (List.filter (fun (r : Benchlib.Analysis.ghd_run) -> r.outcome = `Timeout) (ghd_runs p))

(* Everything the fuel budget fixes, keyed by instance name so the pool
   order cannot matter: hw verdict ladders, GHD verdicts and the
   fractional widths. Two passes at one seed must agree exactly. *)
type answers =
  (string * (int * string) list) list
  * (string * (string * string) list) list
  * (string * int * float * float option) list

let answers p : answers =
  let by_name l = List.sort compare l in
  let hw =
    by_name
      (List.map
         (fun (r : Benchlib.Analysis.record) ->
           ( r.instance.Benchlib.Instance.name,
             List.map
               (fun (x : Benchlib.Analysis.hw_run) -> (x.k, verdict_name x.outcome))
               r.hw_runs ))
         p.records)
  in
  let ghd =
    by_name
      (List.map
         (fun (g : Benchlib.Analysis.ghd_record) ->
           ( g.name,
             List.map
               (fun (x : Benchlib.Analysis.ghd_run) ->
                 (Ghd.Portfolio.algorithm_name x.algorithm, verdict_name x.outcome))
               g.runs ))
         p.ghd)
  in
  let frac =
    by_name
      (List.map
         (fun (f : Benchlib.Analysis.frac_record) ->
           (f.name, f.hw, f.improve_width, f.frac_improve_width))
         p.frac)
  in
  (hw, ghd, frac)

(* The oracle, independent of the solvers: every hw witness is a valid
   HD of its input within the claimed width; no GHD algorithm says yes
   where another says no; every GHD yes is re-derived (the fuel budget
   makes it deterministic) and must be a valid GHD within k - 1; the
   fractional widths respect fhw <= hw. *)
let verify p =
  let by_name = Hashtbl.create 256 in
  List.iter
    (fun (r : Benchlib.Analysis.record) ->
      let h = r.instance.Benchlib.Instance.hg in
      Hashtbl.replace by_name r.instance.Benchlib.Instance.name h;
      attempt (List.length r.hw_runs);
      match (r.hw, r.hd) with
      | (Benchlib.Analysis.Exact k | Benchlib.Analysis.Upper k), Some d ->
          check (Decomp.check_hd h d = [] && Decomp.width d <= k)
            "campaign: %s: hw witness is not a valid HD of width <= %d"
            r.instance.Benchlib.Instance.name k
      | (Benchlib.Analysis.Exact _ | Benchlib.Analysis.Upper _), None ->
          fail "campaign: %s: yes without a witness" r.instance.Benchlib.Instance.name
      | Benchlib.Analysis.Open_above _, _ -> ())
    p.records;
  List.iter
    (fun (g : Benchlib.Analysis.ghd_record) ->
      attempt (List.length g.runs);
      let says v =
        List.exists (fun (x : Benchlib.Analysis.ghd_run) -> x.outcome = v) g.runs
      in
      check (not (says `Yes && says `No))
        "campaign: %s: GHD algorithms disagree at k=%d" g.name g.target_k;
      let h = Hashtbl.find by_name g.name in
      List.iter
        (fun (x : Benchlib.Analysis.ghd_run) ->
          if x.outcome = `Yes then begin
            let k = g.target_k in
            let o =
              match x.algorithm with
              | Ghd.Portfolio.Bal_sep_alg | Ghd.Portfolio.Par_bal_sep_alg ->
                  (Ghd.Bal_sep.solve ~deadline:(budget ()) h ~k).outcome
              | Ghd.Portfolio.Local_bip_alg ->
                  (Ghd.Local_bip.solve ~deadline:(budget ()) h ~k).outcome
              | Ghd.Portfolio.Global_bip_alg ->
                  (Ghd.Global_bip.solve ~deadline:(budget ()) h ~k).outcome
            in
            match o with
            | Detk.Decomposition d ->
                check (Decomp.check_ghd h d = [] && Decomp.width d <= k)
                  "campaign: %s: %s GHD witness invalid at k=%d" g.name
                  (Ghd.Portfolio.algorithm_name x.algorithm) k
            | Detk.No_decomposition | Detk.Timeout ->
                fail "campaign: %s: %s yes did not reproduce" g.name
                  (Ghd.Portfolio.algorithm_name x.algorithm)
          end)
        g.runs)
    p.ghd;
  List.iter
    (fun (f : Benchlib.Analysis.frac_record) ->
      attempt 1;
      let hw = float_of_int f.hw +. 1e-9 in
      check
        (f.improve_width <= hw
        && match f.frac_improve_width with Some w -> w <= hw | None -> true)
        "campaign: %s: fractional width above hw %d" f.name f.hw)
    p.frac

(* ---- the traced extras -------------------------------------------------- *)

(* f(H,k) on every ghd-phase input, outside the timed phases: the span
   gives subedge generation its own time, the counter its volume. *)
let subedges p =
  let hg = Hashtbl.create 256 in
  List.iter
    (fun (r : Benchlib.Analysis.record) ->
      Hashtbl.replace hg r.instance.Benchlib.Instance.name r.instance.Benchlib.Instance.hg)
    p.records;
  Kit.Metrics.enabled := true;
  tracing := true;
  let before = Kit.Metrics.snapshot () in
  let total =
    sum
      (List.map
         (fun (g : Benchlib.Analysis.ghd_record) ->
           let h = Hashtbl.find hg g.name in
           snd
             (timed (fun () ->
                  span "ghd.subedges" (fun _ ->
                      try ignore (Ghd.Subedges.f_global ~deadline:(budget ()) h ~k:g.target_k)
                      with Kit.Deadline.Timed_out -> ()))))
         p.ghd)
  in
  let generated =
    Kit.Metrics.get (Kit.Metrics.snapshot ()) "subedges.generated"
    - Kit.Metrics.get before "subedges.generated"
  in
  tracing := false;
  Kit.Metrics.enabled := false;
  (total, generated)

(* ---- one pass in its own process ---------------------------------------- *)

(* What a pass reports back: its timings and counters, the answers the
   fuel budget fixes, and the oracle's verdict on it. *)
type summary = {
  s_build : float;
  s_hw : float;
  s_ghd : float;
  s_frac : float;
  s_wall : float;
  traced : bool;
  answers : answers;
  undecided : int;
  check_runs : int;
  instances : int;
  run_ms : float list;  (* every Check run's time *)
  busy_hw : float;
  busy_ghd : (Ghd.Portfolio.algorithm option * float) list;
  s_deltas : (string * (string * int) list) list;
  peak_mb : float;  (* VmHWM of the process, read right after the pass *)
  sub : (float * int) option;  (* subedge time and volume (traced passes) *)
  ops : int * int * string list;  (* attempted, failed, messages *)
  s_spans : span list;
}

let summarise ~traced p =
  let peak_mb = peak_rss_mb "self" in
  let hw = hw_runs p and ghd = ghd_runs p in
  let busy alg =
    sum
      (List.filter_map
         (fun (r : Benchlib.Analysis.ghd_run) ->
           if alg = None || Some r.algorithm = alg then Some r.seconds else None)
         ghd)
  in
  verify p;
  let sub = if traced then Some (subedges p) else None in
  { s_build = p.build_s; s_hw = p.hw_s; s_ghd = p.ghd_s; s_frac = p.frac_s;
    s_wall = p.wall_s; traced; answers = answers p; undecided = undecided p;
    check_runs = List.length hw + List.length ghd; instances = List.length p.records;
    run_ms =
      List.map (fun (r : Benchlib.Analysis.hw_run) -> r.seconds *. 1000.) hw
      @ List.map (fun (r : Benchlib.Analysis.ghd_run) -> r.seconds *. 1000.) ghd;
    busy_hw = sum (List.map (fun (r : Benchlib.Analysis.hw_run) -> r.seconds) hw);
    busy_ghd =
      List.map
        (fun a -> (a, busy a))
        Ghd.Portfolio.[ None; Some Bal_sep_alg; Some Global_bip_alg; Some Local_bip_alg ];
    s_deltas = p.deltas; peak_mb; sub;
    ops = (!attempted, !failed, List.rev !messages); s_spans = !spans }

(* Each pass runs, and is verified, in a fresh forked process, so its
   heap and its peak RSS start from nothing, like a campaign run from
   the command line; only the summary comes back, marshalled over a
   pipe, so the parent stays small for the passes that follow. The
   parent never spawns a domain, so it can keep forking. *)
let pass ~seed ~n ~traced =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      spans := [];
      attempted := 0;
      failed := 0;
      messages := [];
      let oc = Unix.out_channel_of_descr w in
      let res =
        match summarise ~traced (run_pass ~seed ~n ~traced) with
        | s -> Ok s
        | exception e -> Error (Printexc.to_string e)
      in
      Marshal.to_channel oc (res : (summary, string) result) [];
      close_out oc;
      Unix._exit 0
  | pid -> (
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let res =
        Fun.protect
          ~finally:(fun () ->
            close_in_noerr ic;
            ignore (Unix.waitpid [] pid))
          (fun () -> (Marshal.from_channel ic : (summary, string) result))
      in
      match res with
      | Ok s ->
          adopt s.s_spans;
          absorb s.ops;
          s
      | Error e -> failwith ("campaign pass failed: " ^ e))

(* ---- the workload ------------------------------------------------------- *)

let run ~seed ~seconds ~trace =
  let t_start = now () in
  (* Untraced runs measure; a traced run alternates untraced and traced
     passes so the difference is the tracing overhead. Set-up is the
     repository build, timed three times before each pass so its figure
     samples the whole run like the passes do; the heap is compacted
     after, so the forked pass does not inherit the builds' garbage. *)
  let builds = ref [] in
  let rec loop n acc =
    let traced = trace && n mod 2 = 1 in
    for _ = 1 to 3 do
      builds := snd (timed (fun () -> Benchlib.Repository.build ~scale ())) :: !builds
    done;
    Gc.compact ();
    let acc = pass ~seed ~n ~traced :: acc in
    let untraced = List.filter (fun i -> not i.traced) acc in
    let traced_n = List.length acc - List.length untraced in
    let enough =
      List.length untraced >= 2 && ((not trace) || traced_n >= 2)
    in
    if enough && now () -. t_start >= float_of_int seconds then List.rev acc
    else loop (n + 1) acc
  in
  let its = loop 0 [] in
  Printf.printf "campaign passes, wall s:%s\n"
    (String.concat ""
       (List.map (fun i -> Printf.sprintf " %.3f%s" i.s_wall (if i.traced then "(traced)" else "")) its));
  let setup_s = median !builds in
  let plain = List.filter (fun i -> not i.traced) its in
  let traced = List.filter (fun i -> i.traced) its in
  (* Determinism self-check: every pass gives the same answers and the
     same undecided count; traced ones also the same counters. *)
  let first = List.hd its in
  List.iter
    (fun it ->
      check (it.answers = first.answers && it.undecided = first.undecided)
        "campaign: verdicts differ between two passes at one seed")
    its;
  (match traced with
  | t0 :: rest ->
      List.iter
        (fun t ->
          check (t.s_deltas = t0.s_deltas)
            "campaign: search counters differ between two traced passes")
        rest
  | [] -> ());
  let med f l = median (List.map f l) in
  (* Every timing is a median over the run's untraced passes: wall_s
     is the median pass, and the per-run latencies pool all passes. *)
  let wall = med (fun i -> i.s_wall) plain in
  let n_inst = first.instances in
  let run_ms = List.concat_map (fun i -> i.run_ms) plain in
  let e2e =
    [ m "setup_s" "s" setup_s;
      m "wall_s" "s" wall;
      m "undecided_share" "ratio" (ratio first.undecided first.check_runs);
      m "p50_ms" "ms" (percentile run_ms 50.);
      m "max_rps" "1/s" (float_of_int n_inst /. wall);
      m "peak_rss_mb" "MiB" (med (fun i -> i.peak_mb) plain) ]
  in
  Printf.printf "campaign: Check run p99 %.3f ms over %d runs in the untraced passes\n"
    (percentile run_ms 99.) (List.length run_ms);
  Printf.printf "campaign: %d instances, %d Check runs, %d passes (%d traced), fuel %d, jobs %d\n"
    n_inst first.check_runs (List.length its) (List.length traced) fuel jobs;
  if not trace then (e2e, [])
  else begin
    let t = traced in
    let t1 = List.hd t in
    let d phase c = List.assoc c (List.assoc phase t1.s_deltas) in
    let busy_ghd alg i = List.assoc alg i.busy_ghd in
    let sub_s, sub_n = Option.get t1.sub in
    let tried = d "experiments.ghd" "balsep.separators_tried" in
    let memo_h = d "experiments.hw" "detk.memo_hits"
    and memo_m = d "experiments.hw" "detk.memo_misses" in
    let lp_s = d "experiments.frac" "lp.solves" and lp_p = d "experiments.frac" "lp.pivots" in
    let traced_wall = med (fun i -> i.s_wall) t in
    let coverage =
      med (fun i -> (i.s_build +. i.s_hw +. i.s_ghd +. i.s_frac) /. i.s_wall) t
    in
    let layers =
      [ m "experiments.build_s" "s" (med (fun i -> i.s_build) t);
        m "experiments.hw_s" "s" (med (fun i -> i.s_hw) t);
        m "experiments.ghd_s" "s" (med (fun i -> i.s_ghd) t);
        m "experiments.frac_s" "s" (med (fun i -> i.s_frac) t);
        m "trace.span_coverage" "ratio" coverage;
        m "trace.overhead_share" "ratio" ((traced_wall -. wall) /. wall);
        m "detk.busy_s" "s" (med (fun i -> i.busy_hw) t);
        m "detk.subproblems" "count" (float_of_int (d "experiments.hw" "detk.subproblems"));
        m "detk.memo_hit_ratio" "ratio" (ratio memo_h (memo_h + memo_m));
        m "ghd.bal_sep_s" "s" (med (busy_ghd (Some Ghd.Portfolio.Bal_sep_alg)) t);
        m "ghd.global_bip_s" "s" (med (busy_ghd (Some Ghd.Portfolio.Global_bip_alg)) t);
        m "ghd.local_bip_s" "s" (med (busy_ghd (Some Ghd.Portfolio.Local_bip_alg)) t);
        m "ghd.bal_sep.accept_ratio" "ratio"
          (ratio (tried - d "experiments.ghd" "balsep.balance_rejections") tried);
        m "ghd.subedges_s" "s" sub_s;
        m "ghd.subedges.generated" "count" (float_of_int sub_n);
        m "lp.solves" "count" (float_of_int lp_s);
        m "lp.pivots" "count" (float_of_int lp_p);
        m "lp.pivots_per_solve" "ratio" (ratio lp_p lp_s);
        m "kit.pool.hw_efficiency" "ratio"
          (med (fun i -> i.busy_hw /. (float_of_int jobs *. i.s_hw)) t);
        m "kit.pool.ghd_efficiency" "ratio"
          (med (fun i -> busy_ghd None i /. (float_of_int jobs *. i.s_ghd)) t) ]
    in
    (e2e, layers)
  end
