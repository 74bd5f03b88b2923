(* Tests for the benchmark repository, the analysis runners and the
   experiment renderers (fast, tiny-scale integration). *)

module B = Benchlib

let build () = B.Repository.build ~seed:7 ~scale:0.05 ()

let repository_build () =
  let instances = build () in
  Alcotest.(check bool) "nonempty" true (List.length instances > 10);
  (* All five groups are populated. *)
  List.iter
    (fun (g, insts) ->
      Alcotest.(check bool) (B.Group.name g ^ " populated") true (insts <> []))
    (B.Repository.by_group instances);
  (* Names are unique. *)
  let names = List.map (fun i -> i.B.Instance.name) instances in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names))

let repository_deterministic () =
  let a = build () and b = build () in
  Alcotest.(check int) "same count" (List.length a) (List.length b);
  List.iter2
    (fun x y ->
      Alcotest.(check string) "same name" x.B.Instance.name y.B.Instance.name;
      Alcotest.(check bool) "same structure" true
        (Hg.Hypergraph.equal_structure x.B.Instance.hg y.B.Instance.hg))
    a b

let repository_scale () =
  let small = B.Repository.build ~seed:7 ~scale:0.05 () in
  let large = B.Repository.build ~seed:7 ~scale:0.3 () in
  Alcotest.(check bool) "scale grows the repository" true
    (List.length large > List.length small)

let save_load_roundtrip () =
  let dir = Filename.temp_file "hb" "" in
  Sys.remove dir;
  let instances = build () in
  B.Repository.save ~dir instances;
  (match B.Repository.load ~dir with
  | Error m -> Alcotest.fail m
  | Ok { B.Repository.instances = loaded; skipped } ->
      Alcotest.(check int) "nothing skipped" 0 (List.length skipped);
      Alcotest.(check int) "count" (List.length instances) (List.length loaded);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "name" a.B.Instance.name b.B.Instance.name;
          Alcotest.(check bool) "group" true (a.B.Instance.group = b.B.Instance.group);
          Alcotest.(check string) "source" a.B.Instance.source b.B.Instance.source;
          Alcotest.(check bool) "structure" true
            (Hg.Hypergraph.equal_structure a.B.Instance.hg b.B.Instance.hg))
        instances loaded);
  (* Clean up. *)
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Sys.rmdir dir

let load_missing () =
  match B.Repository.load ~dir:"/nonexistent-hyperbench" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing dir should fail"

(* Satellite (b): corrupt entries are skipped with a warning, never a
   load-aborting error — the healthy rest of the repository still loads. *)
let load_tolerates_corruption () =
  let dir = Filename.temp_file "hb" "" in
  Sys.remove dir;
  let instances = List.filteri (fun i _ -> i < 4) (build ()) in
  B.Repository.save ~dir instances;
  let first = (List.hd instances).B.Instance.name in
  (* Truncate one .hg file mid-edge, then append an unknown-group entry
     and a torn line to the index. *)
  let oc = open_out (Filename.concat dir (B.Repository.hg_filename first)) in
  output_string oc "e0(v0,";
  close_out oc;
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat dir "index.tsv")
  in
  output_string oc "ghost\tno-such-group\tsrc\ntorn line without tabs\n";
  close_out oc;
  (match B.Repository.load ~dir with
  | Error m -> Alcotest.fail m
  | Ok { B.Repository.instances = loaded; skipped } ->
      Alcotest.(check int) "healthy entries survive"
        (List.length instances - 1)
        (List.length loaded);
      Alcotest.(check int) "one warning per corruption" 3 (List.length skipped);
      Alcotest.(check bool) "truncated file reported by name" true
        (List.mem_assoc first skipped);
      Alcotest.(check bool) "torn index line reported" true
        (List.mem_assoc "index.tsv" skipped));
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Sys.rmdir dir

let save_creates_parents () =
  let base = Filename.temp_file "hb" "" in
  Sys.remove base;
  (* Two levels of missing parents below a missing base directory. *)
  let dir = Filename.concat (Filename.concat base "nested") "repo" in
  let instances = List.filteri (fun i _ -> i < 3) (build ()) in
  B.Repository.save ~dir instances;
  (match B.Repository.load ~dir with
  | Error m -> Alcotest.fail m
  | Ok loaded ->
      Alcotest.(check int) "count" (List.length instances)
        (List.length loaded.B.Repository.instances));
  Sys.readdir dir |> Array.iter (fun f -> Sys.remove (Filename.concat dir f));
  Sys.rmdir dir;
  Sys.rmdir (Filename.concat base "nested");
  Sys.rmdir base

let fast_budget () = Kit.Deadline.of_seconds 0.2

(* A deterministic budget: with fuel instead of wall clock, verdicts are
   bit-identical however the instances are spread over domains. *)
let fuel_budget () = Kit.Deadline.of_fuel 20_000

let analysis_parallel_matches_sequential () =
  let instances = build () in
  let seq =
    B.Analysis.analyze ~budget:fuel_budget ~max_k:4 ~jobs:1 instances
  in
  let par =
    B.Analysis.analyze ~budget:fuel_budget ~max_k:4 ~jobs:4 instances
  in
  Alcotest.(check int) "same record count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : B.Analysis.record) (b : B.Analysis.record) ->
      let name = a.B.Analysis.instance.B.Instance.name in
      Alcotest.(check string) "same order" name b.B.Analysis.instance.B.Instance.name;
      Alcotest.(check bool) (name ^ " same hw status") true
        (a.B.Analysis.hw = b.B.Analysis.hw);
      let runs (r : B.Analysis.record) =
        List.map (fun (x : B.Analysis.hw_run) -> (x.k, x.outcome)) r.B.Analysis.hw_runs
      in
      Alcotest.(check bool) (name ^ " same run verdicts") true (runs a = runs b))
    seq par;
  (* And downstream: the ghd comparison on those records agrees too. *)
  let ghd jobs records =
    List.map
      (fun (g : B.Analysis.ghd_record) -> (g.B.Analysis.name, g.B.Analysis.combined))
      (B.Analysis.ghd_comparison ~budget:fuel_budget ~ks:[ 2; 3; 4 ] ~jobs records)
  in
  Alcotest.(check bool) "ghd comparison agrees" true (ghd 1 seq = ghd 4 par)

let analysis_statuses () =
  let instances = build () in
  let records = B.Analysis.analyze ~budget:fast_budget ~max_k:4 instances in
  Alcotest.(check int) "one record per instance" (List.length instances)
    (List.length records);
  List.iter
    (fun (r : B.Analysis.record) ->
      (* Exactness claim checked against a direct solve. *)
      match r.B.Analysis.hw with
      | B.Analysis.Exact k ->
          let direct = Detk.solve r.B.Analysis.instance.B.Instance.hg ~k in
          (match direct with
          | Detk.Decomposition _ -> ()
          | _ -> Alcotest.failf "%s: exact hw %d not confirmed"
                   r.B.Analysis.instance.B.Instance.name k);
          if k > 1 then begin
            (* The runs must witness the 'no' at k-1. *)
            let below =
              List.find_opt
                (fun (run : B.Analysis.hw_run) -> run.k = k - 1)
                r.B.Analysis.hw_runs
            in
            match below with
            | Some { outcome = `No; _ } -> ()
            | _ -> Alcotest.failf "%s: missing no-run below hw" r.B.Analysis.instance.B.Instance.name
          end
      | B.Analysis.Upper _ | B.Analysis.Open_above _ -> ())
    records

let analysis_witnesses_valid () =
  let instances = build () in
  let records = B.Analysis.analyze ~budget:fast_budget ~max_k:4 instances in
  List.iter
    (fun (r : B.Analysis.record) ->
      match r.B.Analysis.hd with
      | Some d ->
          Alcotest.(check bool)
            (r.B.Analysis.instance.B.Instance.name ^ " valid witness")
            true
            (Decomp.check_hd r.B.Analysis.instance.B.Instance.hg d = [])
      | None -> ())
    records

let stats_histograms () =
  let instances = build () in
  let records = B.Analysis.analyze ~budget:fast_budget ~max_k:3 instances in
  let hist =
    B.Stats.property_histogram
      (fun r -> Some r.B.Analysis.profile.Hg.Properties.degree)
      records
  in
  Alcotest.(check int) "histogram sums to record count"
    (List.length records)
    (Array.fold_left ( + ) 0 hist);
  let sizes =
    B.Stats.size_buckets (fun r -> r.B.Analysis.profile.Hg.Properties.edges) records
  in
  Alcotest.(check int) "size buckets sum" (List.length records)
    (Array.fold_left ( + ) 0 sizes)

let pearson_sanity () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "self" 1.0 (B.Stats.pearson xs xs);
  Alcotest.(check (float 1e-9)) "negation" (-1.0)
    (B.Stats.pearson xs (Array.map (fun x -> -.x) xs));
  Alcotest.(check (float 1e-9)) "constant" 0.0
    (B.Stats.pearson xs [| 5.0; 5.0; 5.0; 5.0 |])

let pearson_degenerate () =
  (* Pinned: fewer than two points (or zero variance, above) yields 0,
     not NaN — figure5 renders these cells as 0.00. *)
  Alcotest.(check (float 1e-9)) "empty" 0.0 (B.Stats.pearson [||] [||]);
  Alcotest.(check (float 1e-9)) "single" 0.0 (B.Stats.pearson [| 3.0 |] [| 7.0 |])

let property_histogram_pinning () =
  (* Pinned against Table 2's row labels 0,1,...,5,">5": value 5 lands in
     the "5" cell, 6 is the first ">5" value, None rows are skipped
     entirely (VC-dim when its computation was cut off), and negative
     values clamp to the 0 cell. *)
  let record ~degree ~vc_dim : B.Analysis.record =
    let hg = Hg.Hypergraph.of_int_edges [ [ 0; 1 ] ] in
    {
      B.Analysis.instance =
        B.Instance.make ~name:"pin" ~group:(List.hd B.Group.all) ~source:"test" hg;
      profile =
        {
          Hg.Properties.vertices = 2; edges = 1; arity = 2; degree;
          bip = 0; bmip3 = 0; bmip4 = 0; vc_dim;
        };
      hw_runs = [];
      hw = B.Analysis.Open_above 0;
      hd = None;
      stats = Kit.Metrics.empty;
    }
  in
  let records =
    [
      record ~degree:0 ~vc_dim:(Some 0);
      record ~degree:1 ~vc_dim:None;
      record ~degree:5 ~vc_dim:(Some 5);
      record ~degree:6 ~vc_dim:(Some 6);
      record ~degree:100 ~vc_dim:(Some 100);
      record ~degree:(-3) ~vc_dim:(Some (-3));
    ]
  in
  let deg =
    B.Stats.property_histogram
      (fun r -> Some r.B.Analysis.profile.Hg.Properties.degree)
      records
  in
  Alcotest.(check (array int))
    "degree buckets: 5 stays in '5', 6 and 100 in '>5', -3 clamps to '0'"
    [| 2; 1; 0; 0; 0; 1; 2 |] deg;
  let vc =
    B.Stats.property_histogram
      (fun r -> r.B.Analysis.profile.Hg.Properties.vc_dim)
      records
  in
  Alcotest.(check (array int)) "vc buckets skip the None record"
    [| 2; 0; 0; 0; 0; 1; 2 |] vc;
  Alcotest.(check int) "vc histogram sums to the Some count" 5
    (Array.fold_left ( + ) 0 vc)

(* The tentpole's determinism claim, end to end: under a fuel budget the
   whole metrics snapshot — every counter and histogram — is identical
   whether the analysis ran on 1 domain or 4. Timers are excluded: spans
   measure wall time, which is never deterministic. *)
let metrics_jobs_parity () =
  let instances = build () in
  let snapshot_of jobs =
    Kit.Metrics.reset ();
    Kit.Metrics.enabled := true;
    let records =
      Fun.protect
        ~finally:(fun () -> Kit.Metrics.enabled := false)
        (fun () -> B.Analysis.analyze ~budget:fuel_budget ~max_k:4 ~jobs instances)
    in
    let snap = Kit.Metrics.snapshot () in
    Kit.Metrics.reset ();
    (records, snap)
  in
  let records1, snap1 = snapshot_of 1 in
  let records4, snap4 = snapshot_of 4 in
  Alcotest.(check bool) "counters identical at jobs=1 and jobs=4" true
    (snap1.Kit.Metrics.counters = snap4.Kit.Metrics.counters);
  Alcotest.(check bool) "histograms identical at jobs=1 and jobs=4" true
    (snap1.Kit.Metrics.histograms = snap4.Kit.Metrics.histograms);
  Alcotest.(check bool) "search did real work" true
    (Kit.Metrics.get snap1 "detk.subproblems" > 0);
  (* Per-record deltas are deterministic too: each instance runs wholly on
     one domain, so its local_delta is the same at any pool width. *)
  List.iter2
    (fun (a : B.Analysis.record) (b : B.Analysis.record) ->
      Alcotest.(check bool)
        (a.B.Analysis.instance.B.Instance.name ^ " same per-instance counters")
        true
        (a.B.Analysis.stats.Kit.Metrics.counters
        = b.B.Analysis.stats.Kit.Metrics.counters))
    records1 records4;
  (* And the per-record deltas of one run sum back to its global total. *)
  let summed name =
    List.fold_left
      (fun acc (r : B.Analysis.record) -> acc + Kit.Metrics.get r.B.Analysis.stats name)
      0 records1
  in
  Alcotest.(check int) "per-record deltas sum to the global counter"
    (Kit.Metrics.get snap1 "detk.subproblems")
    (summed "detk.subproblems")

let experiments_render () =
  (* jobs:2 renders through the domain pool; the artefact shape checks
     below are jobs-independent. *)
  let budget () = Kit.Deadline.of_seconds 0.2 in
  let ctx =
    match
      Experiments.prepare_campaign ~seed:7 ~scale:0.05 ~budget
        ~max_k:4 ~jobs:2 ()
    with
    | Ok c -> c.Experiments.context
    | Error m -> Alcotest.fail m
  in
  let checks =
    [
      (Experiments.table1 ctx, "Table 1");
      (Experiments.table2 ctx, "Table 2");
      (Experiments.figure3 ctx, "Figure 3");
      (Experiments.figure4 ctx, "Figure 4");
      (Experiments.figure5 ctx, "Figure 5");
      (Experiments.table3 ctx, "Table 3");
      (Experiments.table4 ctx, "Table 4");
      (Experiments.table5 ctx, "Table 5");
      (Experiments.table6 ctx, "Table 6");
      ( Experiments.ablation ~budget ctx,
        "Ablation: design choices" );
    ]
  in
  List.iter
    (fun (text, header) ->
      Alcotest.(check bool)
        (header ^ " rendered")
        true
        (String.length text > String.length header
        && String.sub text 0 (String.length header) = header))
    checks

(* Attempt i of a retried instance gets 2^i times the base budget. *)
let escalating_budget () =
  let budget, budget_for = Experiments.escalating_budget ~fuel:1000 0.5 in
  let fuel d = Kit.Deadline.fuel_remaining d in
  Alcotest.(check (option int)) "budget () is attempt 0" (Some 1000)
    (fuel (budget ()));
  List.iter
    (fun (attempt, want) ->
      Alcotest.(check (option int))
        (Printf.sprintf "attempt %d" attempt)
        (Some want)
        (fuel (budget_for ~attempt ())))
    [ (0, 1000); (1, 2000); (2, 4000) ]

(* --- gates ---------------------------------------------------------------- *)

let gates text =
  match B.Gate.parse ~file:"gates.txt" text with
  | Ok g -> g
  | Error m -> Alcotest.failf "unexpected parse error: %s" m

let gate_bounds () =
  let g = gates "serve.errors <= 0\nserve.rps >= 20  # floor\n\n# comment\n" in
  let check name want rows =
    Alcotest.(check int) name want (List.length (B.Gate.check g ~leg:"serve" rows))
  in
  let rows errors rps = [ ("errors", [ errors ]); ("rps", [ rps ]) ] in
  check "equality passes both ways" 0 (rows 0. 20.);
  check "<= violated" 1 (rows 1. 20.);
  check ">= violated" 1 (rows 0. 19.9);
  check "every value of a metric is gated" 1
    [ ("errors", [ 0.; 0.; 2. ]); ("rps", [ 25. ]) ];
  check "a metric with no values passes" 0 [ ("errors", []); ("rps", []) ]

let gate_other_legs_ignored () =
  let g = gates "perf.components.words <= 130\nserve.errors <= 0\n" in
  Alcotest.(check (list string)) "serve sees only its own line" []
    (B.Gate.check g ~leg:"serve" [ ("errors", [ 0. ]) ]);
  Alcotest.(check (list string)) "perf: metric keeps its inner dots" []
    (B.Gate.check g ~leg:"perf" [ ("components.words", [ 64. ]) ])

let gate_unknown_metric () =
  let g = gates "serve.p99ms <= 5000\n" in
  Alcotest.(check int) "typo is a violation" 1
    (List.length
       (B.Gate.check g ~leg:"serve" [ ("p99_ms", [ 1. ]); ("errors", [ 0. ]) ]))

let gate_malformed () =
  List.iter
    (fun (text, prefix) ->
      match B.Gate.parse ~file:"g" text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error m ->
          Alcotest.(check bool)
            (Printf.sprintf "%S -> %s" text m)
            true
            (String.length m >= String.length prefix
            && String.sub m 0 (String.length prefix) = prefix))
    [
      ("# ok\nserve.errors <= 0\nserve.rps 20\n", "g:3: ");
      ("serve.errors < 0\n", "g:1: ");
      ("serve.errors <= zero\n", "g:1: ");
      ("serve.errors <= nan\n", "g:1: ");
      ("errors <= 0\n", "g:1: ");
      ("serv.errors <= 0\n", "g:1: ");
      ("intra.speedup >= 2.0\n", "g:1: ");
      ("max_errors 0\n", "g:1: ");
    ]

(* The committed file parses, and every leg it names is a bench leg. *)
let gate_committed_file () =
  let path =
    Filename.concat
      (Filename.dirname (Filename.dirname Sys.executable_name))
      "bench/gates.txt"
  in
  match B.Gate.read path with
  | Error m -> Alcotest.fail m
  | Ok g ->
      Alcotest.(check bool) "nonempty" true (g <> []);
      List.iter
        (fun (b : B.Gate.bound) ->
          Alcotest.(check bool)
            (Printf.sprintf "line %d names leg %s" b.line b.leg)
            true (List.mem b.leg B.Gate.legs))
        g;
      List.iter
        (fun leg ->
          Alcotest.(check bool) (leg ^ " gated") true
            (List.exists (fun (b : B.Gate.bound) -> b.leg = leg) g))
        B.Gate.legs

(* One file gating two legs: each leg checks only its own lines. *)
let gate_two_legs () =
  let g =
    gates
      "perf.components.words <= 130\nperf.vertices_of_edges.words <= 8\n\
       serve.errors <= 0\nserve.rps >= 20\nserve.p99_ms <= 5000\n"
  in
  Alcotest.(check (list string)) "serve passes" []
    (B.Gate.check g ~leg:"serve"
       [ ("errors", [ 0. ]); ("rps", [ 120. ]); ("p99_ms", [ 40. ]) ]);
  Alcotest.(check (list string)) "perf passes" []
    (B.Gate.check g ~leg:"perf"
       [
         ("components.words", [ 64. ]);
         ("vertices_of_edges.words", [ 3. ]);
         ("is_balanced.words", [ 44. ]);
       ])

let () =
  Alcotest.run "benchlib"
    [
      ( "repository",
        [
          Alcotest.test_case "build" `Quick repository_build;
          Alcotest.test_case "deterministic" `Quick repository_deterministic;
          Alcotest.test_case "scale" `Quick repository_scale;
          Alcotest.test_case "save/load" `Quick save_load_roundtrip;
          Alcotest.test_case "save creates parents" `Quick save_creates_parents;
          Alcotest.test_case "load missing" `Quick load_missing;
          Alcotest.test_case "load tolerates corruption" `Quick
            load_tolerates_corruption;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "statuses" `Slow analysis_statuses;
          Alcotest.test_case "witnesses valid" `Slow analysis_witnesses_valid;
          Alcotest.test_case "parallel = sequential" `Slow
            analysis_parallel_matches_sequential;
        ] );
      ( "stats",
        [
          Alcotest.test_case "histograms" `Quick stats_histograms;
          Alcotest.test_case "pearson" `Quick pearson_sanity;
          Alcotest.test_case "pearson degenerate" `Quick pearson_degenerate;
          Alcotest.test_case "property histogram pinning" `Quick
            property_histogram_pinning;
        ] );
      ( "metrics",
        [ Alcotest.test_case "jobs parity" `Slow metrics_jobs_parity ] );
      ( "experiments",
        [
          Alcotest.test_case "render all artefacts" `Slow experiments_render;
          Alcotest.test_case "escalating budget" `Quick escalating_budget;
        ] );
      ( "gate",
        [
          Alcotest.test_case "<= and >= bounds" `Quick gate_bounds;
          Alcotest.test_case "other legs ignored" `Quick gate_other_legs_ignored;
          Alcotest.test_case "unknown metric is a violation" `Quick
            gate_unknown_metric;
          Alcotest.test_case "malformed line names its number" `Quick
            gate_malformed;
          Alcotest.test_case "committed gates.txt" `Quick gate_committed_file;
          Alcotest.test_case "one file gates serve and perf" `Quick gate_two_legs;
        ] );
    ]
