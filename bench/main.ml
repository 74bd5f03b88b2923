(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (run with no arguments, or name specific artefacts), plus
   Bechamel micro-benchmarks of the core operations and the ablation
   benches called out in DESIGN.md.

   Environment knobs:
     HB_SCALE   repository scale factor        (default 1.0)
     HB_BUDGET  per-run timeout in seconds     (default 0.5)
     HB_FUEL    per-run fuel budget, overrides HB_BUDGET when > 0
     HB_SEED    repository seed                (default 2019)
     HB_JOBS    analysis domain-pool width     (default: all cores)
     HB_JOURNAL campaign journal path          (default BENCH_journal.jsonl;
                empty disables journaling)
     HB_RESUME  when 1, resume from HB_JOURNAL instead of starting over
     HB_RETRIES per-instance retries with doubling budget (default 0)
     HB_MEM_MB  soft memory budget per process; excess -> out_of_memory
     HB_ISOLATE when 1, run each instance in a forked worker process with
                a hard wall-clock watchdog and a hard memory rlimit
     HB_WALL    watchdog budget in seconds under HB_ISOLATE (default 3600)
     HB_FAULT   fault-injection spec (see Kit.Fault), e.g.
                crash@instance.cq-rand-002:1 or hang@instance.cq-rand-002:1
     HB_CACHE   content-addressed result-cache directory for campaigns
                (unset = no cache); the [repo] artefact uses its own
                scratch cache regardless

   HB_JOBS spreads the per-instance analysis over a fixed-size domain
   pool; results are collected in instance order, so tables and row
   orderings never depend on the pool interleaving. With the wall-clock
   HB_BUDGET, verdicts right at the timeout boundary are timing-sensitive
   between any two runs (at any jobs value); set HB_FUEL for a
   deterministic budget that makes every verdict and count bit-identical
   at every HB_JOBS value.

   Leg knobs:
     HB_PERF_ITERS    iterations per [perf] micro-kernel (default 10000)
     HB_GATE          gate file (bench/gates.txt): one "<leg>.<metric> <= v" or
                      ">= v" bound per line for the perf and serve legs;
                      each leg checks only its own lines

   A malformed knob exits 1 naming it. Any gate violation exits 7: a
   missed HB_GATE bound, a gate line naming a metric its leg does not
   produce, the repo leg's cache re-run check, or a chaos violation.
   Failures to set a leg up keep their own codes (6 for the repository,
   campaign and serve warm-up).

   Usage: main.exe [table1|table2|table3|table4|table5|table6|
                    figure3|figure4|figure5|ablation|micro|perf|repo|
                    serve|chaos]... *)

let knob name parse what default =
  match Sys.getenv_opt name with
  | None -> default
  | Some v -> (
      match parse (String.trim v) with
      | Some x -> x
      | None ->
          Printf.eprintf "bench: %s: expected %s, got %S\n%!" name what v;
          exit 1)

let env_float name default = knob name float_of_string_opt "a number" default
let env_int name default = knob name int_of_string_opt "an integer" default

let enforce ~leg violations =
  if violations <> [] then begin
    List.iter (Printf.eprintf "%s gate: %s\n" leg) violations;
    Printf.eprintf "%s: %d gate violation(s)\n%!" leg (List.length violations);
    exit 7
  end

let write_report path contents =
  Benchlib.Fsio.write_atomic path contents;
  Printf.printf "Wrote %s\n" path

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* --- Bechamel micro-benchmarks ------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let rng = Kit.Rng.create 7 in
  let medium = Gen.Random_csp.random rng ~n_variables:30 ~n_constraints:45 ~max_arity:4 in
  let grid = Gen.Structured.grid ~rows:4 ~cols:4 in
  let fano =
    Hg.Hypergraph.of_int_edges
      [ [ 0; 1; 2 ]; [ 0; 3; 4 ]; [ 0; 5; 6 ]; [ 1; 3; 5 ]; [ 1; 4; 6 ];
        [ 2; 3; 6 ]; [ 2; 4; 5 ] ]
  in
  let sep = Kit.Bitset.of_list medium.Hg.Hypergraph.n_vertices [ 0; 1; 2 ] in
  let tests =
    [
      Test.make ~name:"components(medium)"
        (Staged.stage (fun () ->
             Hg.Components.components medium
               ~within:(Hg.Hypergraph.all_edges medium) sep));
      Test.make ~name:"profile(fano)"
        (Staged.stage (fun () -> Hg.Properties.profile fano));
      Test.make ~name:"subedges f(fano,2)"
        (Staged.stage (fun () -> Ghd.Subedges.f_global fano ~k:2));
      Test.make ~name:"detk hd(fano,3)"
        (Staged.stage (fun () -> Detk.solve fano ~k:3));
      Test.make ~name:"detk hd(grid4x4,3)"
        (Staged.stage (fun () -> Detk.solve grid ~k:3));
      Test.make ~name:"balsep(fano,3)"
        (Staged.stage (fun () -> Ghd.Bal_sep.solve fano ~k:3));
      Test.make ~name:"rho*(fano)"
        (Staged.stage (fun () ->
             Fhd.Frac_cover.rho_star fano (Hg.Hypergraph.vertices fano)));
    ]
  in
  let grouped = Test.make_grouped ~name:"hyperbench" ~fmt:"%s %s" tests in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 100) ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "Micro-benchmarks (monotonic clock, ns/run):";
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, est) ->
      match Analyze.OLS.estimates est with
      | Some [ ns ] -> Printf.printf "  %-28s %12.0f ns\n" name ns
      | _ -> Printf.printf "  %-28s %12s\n" name "n/a")
    (List.sort compare rows)

(* --- perf: allocation-aware kernel benchmarks -------------------------------- *)

(* Times the mutable-kernel hot paths against reference implementations
   written with the immutable Bitset API only (the pre-kernel fold-of-copies
   idiom), reporting both ns/op and allocated words/op, and writes
   BENCH_perf.json. Words count every allocation, minor or straight into
   the major heap (a block above Max_young_wosize words), so a hot path
   that allocates a large matrix per call cannot hide. Unlike the bechamel
   micro benches, allocation rates are iteration-count-independent, so the
   JSON is comparable across machines and suitable as a CI regression gate
   (the perf.*.words lines of HB_GATE). *)

module Perf = struct
  module B = Kit.Bitset
  module H = Hg.Hypergraph

  (* Immutable reference implementations: one allocation per fold step. *)
  let vertices_of_edges_ref h es =
    B.fold (fun e acc -> B.union acc h.H.edges.(e)) es (B.empty h.H.n_vertices)

  let edges_touching_ref h vs =
    B.fold (fun v acc -> B.union acc h.H.incidence.(v)) vs (B.empty h.H.n_edges)

  let components_ref h ~within u =
    let outside e = B.diff e u in
    let remaining =
      ref
        (B.fold
           (fun e acc ->
             if not (B.is_empty (outside h.H.edges.(e))) then B.add e acc
             else acc)
           within (B.empty h.H.n_edges))
    in
    let result = ref [] in
    let rec grow comp region =
      let touch = B.inter (edges_touching_ref h region) !remaining in
      if B.is_empty touch then comp
      else begin
        remaining := B.diff !remaining touch;
        grow (B.union comp touch)
          (B.union region (outside (vertices_of_edges_ref h touch)))
      end
    in
    let rec loop () =
      match B.choose !remaining with
      | None -> List.rev !result
      | Some e ->
          remaining := B.remove e !remaining;
          let comp = grow (B.singleton h.H.n_edges e) (outside h.H.edges.(e)) in
          result := comp :: !result;
          loop ()
    in
    loop ()

  let separates_ref h ~within u =
    let total = B.cardinal within in
    match components_ref h ~within u with
    | [] -> total > 0
    | [ c ] -> B.cardinal c < total
    | _ :: _ :: _ -> true

  (* The definition, over the full component list. *)
  let is_balanced_ref h ~within ~special u =
    let bound = (B.cardinal within + Array.length special) / 2 in
    List.for_all
      (fun (es, sps) -> B.cardinal es + List.length sps <= bound)
      (Hg.Components.components_extended h ~within ~special u)

  (* Words allocated so far, minor and straight-to-major. Gc.minor_words
     is exact; the minor count inside Gc.counters (hence
     Gc.allocated_bytes) lags the allocation pointer in OCaml 5, so only
     its major part is used, less the words promoted from the minor heap
     (already counted there). *)
  let allocated_words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted

  (* (ns/op, allocated words/op) over [iters] runs, after warmup. *)
  let measure f iters =
    for _ = 1 to 100 do ignore (Sys.opaque_identity (f ())) done;
    let w0 = allocated_words () in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do ignore (Sys.opaque_identity (f ())) done;
    let t1 = Unix.gettimeofday () in
    let w1 = allocated_words () in
    ((t1 -. t0) *. 1e9 /. float_of_int iters, (w1 -. w0) /. float_of_int iters)

  (* [base] is the (ns, words) of the immutable reference, when the kernel
     has one. *)
  type row = {
    op : string;
    ns : float;
    words : float;
    base : (float * float) option;
  }

  let run ~iters =
    let rng = Kit.Rng.create 7 in
    let medium =
      Gen.Random_csp.random rng ~n_variables:30 ~n_constraints:45 ~max_arity:4
    in
    let grid = Gen.Structured.grid ~rows:4 ~cols:4 in
    let fano =
      H.of_int_edges
        [ [ 0; 1; 2 ]; [ 0; 3; 4 ]; [ 0; 5; 6 ]; [ 1; 3; 5 ]; [ 1; 4; 6 ];
          [ 2; 3; 6 ]; [ 2; 4; 5 ] ]
    in
    let nv = medium.H.n_vertices and ne = medium.H.n_edges in
    let all = H.all_edges medium in
    let sep = B.of_list nv [ 0; 1; 2 ] in
    let some_edges = B.of_list ne [ 0; 1; 2; 3; 4 ] in
    let front = H.vertices_of_edges medium some_edges in
    (* The rewrites must agree with the reference semantics on the bench
       inputs before we time them. *)
    assert (B.equal (H.vertices_of_edges medium all) (vertices_of_edges_ref medium all));
    assert (B.equal (H.edges_touching medium front) (edges_touching_ref medium front));
    assert (
      List.for_all2 B.equal
        (Hg.Components.components medium ~within:all sep)
        (components_ref medium ~within:all sep));
    assert (
      Hg.Components.separates medium ~within:all sep
      = separates_ref medium ~within:all sep);
    (* A bag the heavy-vertex prefilter lets through and the BFS rejects:
       the row times the early-exit search, not just the subset test. *)
    assert (B.subset (Hg.Components.heavy_vertices medium ~within:all ~special:[||]) sep);
    assert (not (is_balanced_ref medium ~within:all ~special:[||] sep));
    assert (not (Hg.Components.is_balanced medium ~within:all ~special:[||] sep));
    let kernel ?baseline op current =
      let ns, words = measure current iters in
      { op; ns; words; base = Option.map (fun b -> measure b iters) baseline }
    in
    (* A 12-vertex bag of [medium] that 39 edges meet: ρ* is a 39-row
       packing LP. *)
    let bag = B.of_list nv (List.init 12 (fun i -> 8 + i)) in
    assert (B.cardinal (H.edges_touching medium bag) = 39);
    let rows =
      [
        kernel "components"
          ~baseline:(fun () -> components_ref medium ~within:all sep)
          (fun () -> Hg.Components.components medium ~within:all sep);
        kernel "vertices_of_edges"
          ~baseline:(fun () -> vertices_of_edges_ref medium all)
          (fun () -> H.vertices_of_edges medium all);
        kernel "edges_touching"
          ~baseline:(fun () -> edges_touching_ref medium front)
          (fun () -> H.edges_touching medium front);
        kernel "separates"
          ~baseline:(fun () -> separates_ref medium ~within:all sep)
          (fun () -> Hg.Components.separates medium ~within:all sep);
        kernel "is_balanced"
          ~baseline:(fun () -> is_balanced_ref medium ~within:all ~special:[||] sep)
          (fun () -> Hg.Components.is_balanced medium ~within:all ~special:[||] sep);
        kernel "rho_star" (fun () -> Fhd.Frac_cover.rho_star medium bag);
      ]
    in
    (* Whole-instance runs: end-to-end effect of the kernel on the search. *)
    let instance name h budget =
      let deadline = Kit.Deadline.of_fuel budget in
      let t0 = Unix.gettimeofday () in
      let verdict, k = Detk.hypertree_width ~deadline h in
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      let hw = match verdict with Some (hw, _) -> hw | None -> -k in
      (name, hw, ms)
    in
    let instances =
      [
        instance "fano" fano 1_000_000;
        instance "grid-4x4" grid 1_000_000;
        instance "csp-medium" medium 200_000;
      ]
    in
    (rows, instances)

  let render_json ~iters rows instances =
    let open Kit.Json in
    to_string
      (Obj
         [
           ("schema", String "hyperbench-perf/2");
           ("iters", Int iters);
           ( "kernels",
             List
               (List.map
                  (fun r ->
                    Obj
                      ([
                         ("op", String r.op);
                         ("ns_per_op", Float r.ns);
                         ("words_per_op", Float r.words);
                       ]
                      @
                      match r.base with
                      | None -> []
                      | Some (base_ns, base_words) ->
                          [
                            ("baseline_ns_per_op", Float base_ns);
                            ("baseline_words_per_op", Float base_words);
                            ("speedup", Float (base_ns /. Float.max r.ns 1e-9));
                            ( "alloc_reduction",
                              Float (base_words /. Float.max r.words 1e-9) );
                          ]))
                  rows) );
           ( "instances",
             List
               (List.map
                  (fun (name, hw, ms) ->
                    Obj
                      [
                        ("name", String name);
                        ("hw", Int hw);
                        ("wall_ms", Float ms);
                      ])
                  instances) );
         ])

  let main ~gates () =
    let iters = env_int "HB_PERF_ITERS" 10_000 in
    let rows, instances = run ~iters in
    Printf.printf "Kernel perf (%d iters; baseline = immutable-API reference):\n" iters;
    Printf.printf "  %-20s %12s %12s %9s %12s %10s\n" "op" "ns/op" "words/op"
      "speedup" "base-ns/op" "alloc-red";
    List.iter
      (fun r ->
        Printf.printf "  %-20s %12.0f %12.1f" r.op r.ns r.words;
        match r.base with
        | None -> Printf.printf " %9s %12s %10s\n" "-" "-" "-"
        | Some (base_ns, base_words) ->
            Printf.printf " %8.1fx %12.0f %9.0fx\n"
              (base_ns /. Float.max r.ns 1e-9)
              base_ns
              (base_words /. Float.max r.words 1e-9))
      rows;
    Printf.printf "Whole-instance hypertree_width (fuel-capped):\n";
    List.iter
      (fun (name, hw, ms) ->
        Printf.printf "  %-20s hw=%-3s %10.1f ms\n" name
          (if hw >= 0 then string_of_int hw
           else Printf.sprintf ">=%d?" (-hw))
          ms)
      instances;
    write_report "BENCH_perf.json" (render_json ~iters rows instances);
    enforce ~leg:"perf"
      (Benchlib.Gate.check gates ~leg:"perf"
         (List.map (fun r -> (r.op ^ ".words", [ r.words ])) rows))
end

(* --- repo: persistence formats and result cache ------------------------------ *)

(* Measures the storage layer end to end and writes BENCH_repo.json:
   text vs binary repository load throughput (instances/sec) and on-disk
   size, then a campaign run twice against a fresh result cache — the
   re-run must hit the cache on every definitive verdict and reproduce
   the tables (compared with measured seconds normalised out, the same
   convention as the resilience tests). Fuel-budgeted, so every number
   except the wall-clock rates is machine-independent. *)
module Repo_bench = struct
  let rec dir_bytes path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc f -> acc + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
    else (Unix.stat path).Unix.st_size

  (* Replace every float literal with '#' so measured seconds don't
     defeat the bit-identity comparison (same normalisation as
     test_resilience.ml). *)
  let strip_floats s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    let digit c = c >= '0' && c <= '9' in
    while !i < n do
      if digit s.[!i] then begin
        let j = ref !i in
        while !j < n && digit s.[!j] do incr j done;
        if !j < n && s.[!j] = '.' then begin
          incr j;
          while !j < n && digit s.[!j] do incr j done;
          Buffer.add_char buf '#'
        end
        else Buffer.add_string buf (String.sub s !i (!j - !i));
        i := !j
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf

  let timed_rate ~n ~iters f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do f () done;
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (n * iters) /. Float.max dt 1e-9

  let main ~seed ~scale ~jobs () =
    let scale = Stdlib.min scale 0.3 in
    let fuel = 50_000 in
    let text_dir = "_bench_repo_text" and pack_dir = "_bench_repo_pack" in
    let cache_dir = "_bench_repo_cache" in
    List.iter rm_rf [ text_dir; pack_dir; cache_dir ];
    let instances = Benchlib.Repository.build ~seed ~scale () in
    let n = List.length instances in
    Benchlib.Repository.save ~dir:text_dir instances;
    Benchlib.Repository.pack ~dir:pack_dir ~shards:2 instances;
    let expect_ok what = function
      | Ok l ->
          if l.Benchlib.Repository.skipped <> [] then begin
            Printf.eprintf "repo bench: %s load skipped entries\n%!" what;
            exit 6
          end;
          List.length l.Benchlib.Repository.instances
      | Error m ->
          Printf.eprintf "repo bench: %s load failed: %s\n%!" what m;
          exit 6
    in
    let iters = 5 in
    let text_rate =
      timed_rate ~n ~iters (fun () ->
          ignore (expect_ok "text" (Benchlib.Repository.load ~dir:text_dir)))
    in
    let pack_rate =
      timed_rate ~n ~iters (fun () ->
          ignore
            (expect_ok "binary" (Benchlib.Repository.load_pack ~dir:pack_dir)))
    in
    let text_bytes = dir_bytes text_dir and pack_bytes = dir_bytes pack_dir in
    (* Campaign twice against one fresh cache; metrics give the per-run
       cache traffic, the stripped tables must agree exactly. *)
    Kit.Metrics.enabled := true;
    let cache = Benchlib.Result_cache.create ~dir:cache_dir in
    let run_campaign () =
      match
        Experiments.prepare_campaign ~seed ~scale
          ~budget:(fun () -> Kit.Deadline.of_fuel fuel)
          ~jobs ~isolate:false ~cache ()
      with
      | Ok c -> c
      | Error m ->
          Printf.eprintf "repo bench: campaign failed: %s\n%!" m;
          exit 6
    in
    let tables c =
      let ctx = c.Experiments.context in
      strip_floats
        (String.concat "\n"
           [
             Experiments.table1 ctx; Experiments.table2 ctx;
             Experiments.figure4 ctx; Experiments.table4 ctx;
           ])
    in
    let before = Kit.Metrics.snapshot () in
    let first = run_campaign () in
    let mid = Kit.Metrics.snapshot () in
    let second = run_campaign () in
    let after = Kit.Metrics.snapshot () in
    Kit.Metrics.enabled := false;
    let delta a b name = Kit.Metrics.get b name - Kit.Metrics.get a name in
    let hits = delta mid after "cache.hit" in
    let misses = delta mid after "cache.miss" in
    let invalid = delta mid after "cache.invalid" in
    let looked_up = hits + misses + invalid in
    let hit_rate =
      if looked_up = 0 then 0.0
      else float_of_int hits /. float_of_int looked_up
    in
    let identical = tables first = tables second in
    Printf.printf "Repository formats (%d instances, %d text-load iters):\n" n
      iters;
    Printf.printf "  %-12s %10s %16s\n" "format" "bytes" "instances/sec";
    Printf.printf "  %-12s %10d %16.0f\n" "text" text_bytes text_rate;
    Printf.printf "  %-12s %10d %16.0f\n" "binary" pack_bytes pack_rate;
    Printf.printf
      "Result cache re-run: %d hits / %d misses / %d invalid (hit rate \
       %.2f); first run stored %d\n"
      hits misses invalid hit_rate
      (delta before mid "cache.store");
    Printf.printf "Tables identical across runs (floats stripped): %b\n"
      identical;
    let json =
      let open Kit.Json in
      to_string
        (Obj
           [
             ("schema", String "hyperbench-repo/1");
             ("instances", Int n);
             ("fuel", Int fuel);
             ("text_bytes", Int text_bytes);
             ("pack_bytes", Int pack_bytes);
             ("text_load_per_sec", Float text_rate);
             ("pack_load_per_sec", Float pack_rate);
             ( "cache",
               Obj
                 [
                   ("first_store", Int (delta before mid "cache.store"));
                   ("first_miss", Int (delta before mid "cache.miss"));
                   ("rerun_hit", Int hits);
                   ("rerun_miss", Int misses);
                   ("rerun_invalid", Int invalid);
                   ("rerun_hit_rate", Float hit_rate);
                 ] );
             ("tables_identical", Bool identical);
           ])
    in
    write_report "BENCH_repo.json" json;
    List.iter rm_rf [ text_dir; pack_dir; cache_dir ];
    (* The re-run of a cached campaign must actually hit the cache and
       reproduce the tables; failing that is a regression, not a datum. *)
    enforce ~leg:"repo"
      (if hits > 0 && identical then []
       else
         [ Printf.sprintf "cache re-run failed (hits=%d identical=%b)" hits
             identical ])
end

(* --- serve: in-process daemon fixture ---------------------------------------- *)

(* The serve and chaos legs each run a hyperbenchd inside this process:
   [service] builds the leg's Service over a fresh temp result cache,
   [config] gives its server settings, and the fixture pins an
   ephemeral port, [max 2 HB_JOBS] workers and no rate limit. [f ~port
   ~stop] runs the leg; [stop] drains and joins the server (the fixture
   calls it too, then removes the cache). *)
let with_daemon ~name ~service ~config f =
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hb_%s_%d" name (Unix.getpid ()))
  in
  rm_rf cache_dir;
  Unix.mkdir cache_dir 0o755;
  let svc = service (Benchlib.Result_cache.create ~dir:cache_dir) in
  let cfg =
    {
      config with
      Serve.Server.port = 0;
      jobs = max 2 (Kit.Proc.default_jobs ());
      rate = 0.;
    }
  in
  let srv = Serve.Server.create cfg (Benchlib.Service.handler svc) in
  let th = Thread.create Serve.Server.serve srv in
  let stopped = ref false in
  let stop () =
    if not !stopped then begin
      stopped := true;
      Serve.Server.stop srv;
      Thread.join th
    end
  in
  Fun.protect
    ~finally:(fun () ->
      stop ();
      rm_rf cache_dir)
    (fun () -> f ~port:(Serve.Server.port srv) ~stop)

let host = "127.0.0.1"
let headers = [ ("Content-Type", "application/x-hyperbench") ]

let daemon_fuel () =
  let f = env_int "HB_FUEL" 0 in
  if f > 0 then f else 50_000

(* The triangle plus generated CSP hypergraphs of the given sizes:
   enough shape variety to mix cache hits, parses and real solves. *)
let daemon_corpus ~seed sizes =
  let rng = Kit.Rng.create seed in
  Array.of_list
    ("e1(a,b),e2(b,c),e3(c,a)."
    :: List.map
         (fun (nv, nc) ->
           Hg.Hypergraph.to_string
             (Gen.Random_csp.random rng ~n_variables:nv ~n_constraints:nc
                ~max_arity:3))
         sizes)

(* --- serve: daemon load bench ------------------------------------------------ *)

(* Closed-loop load against a warmed in-process hyperbenchd: 8 keep-alive
   clients each issue 50 requests cycling a small fuel-budgeted corpus.
   Reports p50/p99 latency, throughput and error count into
   BENCH_serve.json; the serve.* lines of HB_GATE (errors, rps, p99_ms)
   gate it. Latencies are wall-clock and machine-dependent; the verdicts
   inside the responses are not (fuel budget), so errors are a hard
   signal. *)
module Serve_bench = struct
  let clients = 8
  let reqs = 50

  let percentile sorted p =
    let n = Array.length sorted in
    if n = 0 then 0.0
    else
      sorted.(max 0
                (min (n - 1)
                   (int_of_float ((p /. 100. *. float_of_int (n - 1)) +. 0.5))))

  let main ~seed ~gates () =
    Kit.Metrics.enabled := true;
    let fuel = daemon_fuel () in
    let corpus_arr =
      daemon_corpus ~seed [ (8, 10); (12, 16); (16, 22); (20, 28) ]
    in
    let service cache =
      {
        Benchlib.Service.cache = Some cache;
        isolate = false;
        mem_mb = None;
        default_timeout = 10.0;
        max_timeout = 30.0;
        max_k = 4;
        supervisor = Serve.Supervisor.create ();
      }
    in
    let config =
      { (Serve.Server.default_config ()) with Serve.Server.queue = 256 }
    in
    let target = Printf.sprintf "/decompose?k=3&fuel=%d" fuel in
    let do_one conn body =
      match Serve.Client.request conn ~headers ~body "POST" target with
      | Ok r when r.Serve.Client.status = 200 -> true
      | Ok _ | Error _ -> false
    in
    let errors, rps, p99 =
      with_daemon ~name:"serve_bench" ~service ~config (fun ~port ~stop:_ ->
          (* warm: every corpus entry solved once, cache filled *)
          let wc = Serve.Client.connect ~host ~port () in
          let warm_ok = Array.for_all (do_one wc) corpus_arr in
          Serve.Client.close wc;
          if not warm_ok then begin
            Printf.eprintf "serve bench: warmup request failed\n%!";
            exit 6
          end;
          let hits_before =
            Kit.Metrics.get (Kit.Metrics.snapshot ()) "cache.hit"
          in
          let errors = Atomic.make 0 in
          let lat = Array.init clients (fun _ -> Array.make reqs 0.0) in
          let t0 = Unix.gettimeofday () in
          let threads =
            List.init clients (fun ci ->
                Thread.create
                  (fun () ->
                    let conn = Serve.Client.connect ~host ~port () in
                    Fun.protect
                      ~finally:(fun () -> Serve.Client.close conn)
                      (fun () ->
                        for i = 0 to reqs - 1 do
                          let body =
                            corpus_arr.((ci + i) mod Array.length corpus_arr)
                          in
                          let r0 = Unix.gettimeofday () in
                          if not (do_one conn body) then
                            Atomic.incr errors;
                          lat.(ci).(i) <- (Unix.gettimeofday () -. r0) *. 1000.
                        done))
                  ())
          in
          List.iter Thread.join threads;
          let latencies = Array.concat (Array.to_list lat) in
          let wall = Unix.gettimeofday () -. t0 in
          Array.sort compare latencies;
          let total = clients * reqs in
          let errors = Atomic.get errors in
          let rps = float_of_int total /. Float.max wall 1e-9 in
          let p50 = percentile latencies 50. in
          let p99 = percentile latencies 99. in
          let hits =
            Kit.Metrics.get (Kit.Metrics.snapshot ()) "cache.hit" - hits_before
          in
          Printf.printf
            "serve: %d clients x %d reqs  %.1f req/s  p50 %.2f ms  p99 %.2f ms  \
             errors %d  cache hits %d\n"
            clients reqs rps p50 p99 errors hits;
          write_report "BENCH_serve.json"
            Kit.Json.(
              to_string
                (Obj
                   [
                     ("schema", String "hyperbench-serve/1");
                     ("clients", Int clients);
                     ("requests_per_client", Int reqs);
                     ("total_requests", Int total);
                     ("fuel", Int fuel);
                     ("corpus", Int (Array.length corpus_arr));
                     ("wall_seconds", Float wall);
                     ("requests_per_sec", Float rps);
                     ("p50_ms", Float p50);
                     ("p99_ms", Float p99);
                     ("errors", Int errors);
                     ("cache_hits", Int hits);
                   ]));
          (errors, rps, p99))
    in
    (* any transport or HTTP failure under plain load is a bug, not load
       shedding: the queue above is deeper than clients *)
    enforce ~leg:"serve"
      (Benchlib.Gate.check gates ~leg:"serve"
         [
           ("errors", [ float_of_int errors ]);
           ("rps", [ rps ]);
           ("p99_ms", [ p99 ]);
         ])
end

(* --- serve: chaos soak ------------------------------------------------------- *)

(* Seeded chaos soak against an in-process hyperbenchd: well-behaved
   clients go through [Serve.Client.request_retry] while the Fault
   harness tears, resets and stalls the wire and kills solve workers,
   and a rogue thread runs slowloris heads, mid-body stalls and aborted
   uploads alongside. The run passes only if every well-behaved request
   was correctly answered (200) or honestly refused (429/503 with
   Retry-After), a fault-free replay of every 200 returns a
   byte-identical body (fuel budgets make solves deterministic), the
   breaker/restart counters actually moved, no fds or zombies leaked,
   and the drain join stayed bounded. These assertions live here, not in
   HB_GATE, so no data line can switch them off; any violation exits 7
   (the CI chaos-gate). *)
module Serve_chaos = struct
  let default_spec =
    "stall@serve.read:p0.05:s7;reset@serve.read:p0.03:s8;\
     torn@serve.write:p0.08:s9;kill@serve.worker:p0.2:s11"

  let count_fds () =
    if Sys.file_exists "/proc/self/fd" then
      Some (Array.length (Sys.readdir "/proc/self/fd"))
    else None

  let clients = 4
  let reqs = 25

  let main ~seed () =
    Kit.Metrics.enabled := true;
    let fuel = daemon_fuel () in
    let violations = ref [] in
    let vmu = Mutex.create () in
    let violate fmt =
      Printf.ksprintf
        (fun m ->
          Mutex.lock vmu;
          violations := m :: !violations;
          Mutex.unlock vmu)
        fmt
    in
    let corpus_arr = daemon_corpus ~seed [ (8, 10); (12, 16); (16, 22) ] in
    let service cache =
      {
        Benchlib.Service.cache = Some cache;
        isolate = Kit.Proc.enabled ();
        mem_mb = None;
        default_timeout = 5.0;
        max_timeout = 10.0;
        max_k = 4;
        supervisor =
          Serve.Supervisor.create ~threshold:4 ~cooldown:0.2 ~retries:2 ~seed
            ();
      }
    in
    let config =
      {
        (Serve.Server.default_config ()) with
        Serve.Server.queue = 64;
        idle_timeout = 2.0;
        drain_grace = 0.5;
        mid_read_timeout = 1.0;
        write_timeout = 5.0;
      }
    in
    let target = Printf.sprintf "/decompose?k=3&fuel=%d" fuel in
    with_daemon ~name:"chaos" ~service ~config (fun ~port ~stop ->
        Fun.protect ~finally:Kit.Fault.clear @@ fun () ->
        let fd_before = count_fds () in
        let spec =
          match Sys.getenv_opt "HB_FAULT" with
          | Some s when s <> "" -> s
          | Some _ | None -> default_spec
        in
        (match Kit.Fault.configure spec with
        | Ok () -> ()
        | Error m ->
            Printf.eprintf "chaos: bad fault spec: %s\n%!" m;
            exit 1);
        Printf.printf "chaos: %d clients x %d reqs under %S\n%!" clients reqs
          spec;
        (* (status, body) per well-behaved request; status 0 = gave up *)
        let record = Array.init clients (fun _ -> Array.make reqs (0, "")) in
        let ok = Atomic.make 0
        and refused = Atomic.make 0 in
        let well_behaved ci =
          for i = 0 to reqs - 1 do
            let body = corpus_arr.((ci + i) mod Array.length corpus_arr) in
            match
              Serve.Client.request_retry ~headers ~body ~retries:6
                ~base_delay:0.02 ~max_delay:0.5 ~deadline:20.0
                ~attempt_timeout:5.0
                ~seed:(seed + (ci * 1000) + i)
                ~host ~port "POST" target
            with
            | Ok r when r.Serve.Client.status = 200 ->
                Atomic.incr ok;
                record.(ci).(i) <- (200, r.Serve.Client.body)
            | Ok r
              when (r.Serve.Client.status = 429 || r.Serve.Client.status = 503)
                   && List.mem_assoc "retry-after" r.Serve.Client.headers ->
                (* honest refusal that outlived the retry budget *)
                Atomic.incr refused;
                record.(ci).(i) <- (r.Serve.Client.status, "")
            | Ok r ->
                violate "client %d req %d: dishonest answer %d%s" ci i
                  r.Serve.Client.status
                  (if r.Serve.Client.status >= 500 then " without Retry-After"
                   else "")
            | Error m -> violate "client %d req %d: retry gave up: %s" ci i m
          done
        in
        (* Rogue traffic: never counted, must also never wedge a worker
           for longer than the server's own timeouts. *)
        let rogue_stop = Atomic.make false in
        let rogue () =
          let head =
            Printf.sprintf
              "POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: \
               application/x-hyperbench\r\nContent-Length: 999\r\n\r\n"
              target
          in
          while not (Atomic.get rogue_stop) do
            (try
               (* slowloris: a header drip that never finishes *)
               let c = Serve.Client.connect ~timeout:3.0 ~host ~port () in
               Serve.Client.write_raw c "POST /decompose HTTP/1.1\r\n";
               Unix.sleepf 0.2;
               Serve.Client.write_raw c "Host: x\r\n";
               Unix.sleepf 0.2;
               Serve.Client.close c;
               (* mid-body stall, then abandon *)
               let c = Serve.Client.connect ~timeout:3.0 ~host ~port () in
               Serve.Client.write_raw c (head ^ "e1(a");
               Unix.sleepf 0.4;
               Serve.Client.close c;
               (* aborted upload: head only, immediate hangup *)
               let c = Serve.Client.connect ~timeout:3.0 ~host ~port () in
               Serve.Client.write_raw c head;
               Serve.Client.close c
             with Unix.Unix_error _ -> ());
            Unix.sleepf 0.1
          done
        in
        let rogue_th = Thread.create rogue () in
        let threads =
          List.init clients (fun ci -> Thread.create (fun () -> well_behaved ci) ())
        in
        List.iter Thread.join threads;
        Atomic.set rogue_stop true;
        Thread.join rogue_th;
        Kit.Fault.clear ();
        (* chaos over: replay every 200 fault-free; fuel-budgeted solves
           (and byte-identical cache hits) make the bodies deterministic *)
        let replayed = ref 0 in
        Array.iteri
          (fun ci row ->
            Array.iteri
              (fun i (status, body) ->
                if status = 200 then begin
                  incr replayed;
                  let b = corpus_arr.((ci + i) mod Array.length corpus_arr) in
                  match
                    Serve.Client.oneshot ~timeout:15.0 ~host ~port ~headers
                      ~body:b "POST" target
                  with
                  | Ok r when r.Serve.Client.status = 200 ->
                      if r.Serve.Client.body <> body then
                        violate
                          "client %d req %d: fault-free replay diverged" ci i
                  | Ok r ->
                      violate "client %d req %d: fault-free replay got %d" ci
                        i r.Serve.Client.status
                  | Error m ->
                      violate "client %d req %d: fault-free replay failed: %s"
                        ci i m
                end)
              row)
          record;
        (* the episode must be visible in /metrics *)
        let metrics_body =
          match Serve.Client.oneshot ~host ~port "GET" "/metrics" with
          | Ok r when r.Serve.Client.status = 200 -> r.Serve.Client.body
          | Ok r ->
              violate "/metrics answered %d" r.Serve.Client.status;
              ""
          | Error m ->
              violate "/metrics failed: %s" m;
              ""
        in
        let snap = Kit.Metrics.snapshot () in
        let restarts = Kit.Metrics.get snap "serve.worker_restarts" in
        if restarts = 0 then
          violate "no worker restarts recorded under kill faults";
        let contains needle s =
          let nl = String.length needle and sl = String.length s in
          let rec at i =
            i + nl <= sl && (String.sub s i nl = needle || at (i + 1))
          in
          at 0
        in
        if not (contains "hb_serve_worker_restarts" metrics_body) then
          violate "/metrics missing hb_serve_worker_restarts";
        (* bounded, clean drain with everything settled *)
        let t0 = Unix.gettimeofday () in
        stop ();
        let drain_s = Unix.gettimeofday () -. t0 in
        if drain_s > 10.0 then
          violate "drain took %.1fs (bound 10s)" drain_s;
        (* no zombie sandbox workers, no fd growth *)
        (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        | 0, _ -> violate "sandbox worker still running after drain"
        | pid, _ -> violate "unreaped sandbox worker %d (zombie)" pid);
        let fd_after = count_fds () in
        (match (fd_before, fd_after) with
        | Some b, Some a when a > b + 8 ->
            violate "fd growth: %d before, %d after" b a
        | _ -> ());
        let total = clients * reqs in
        let ok = Atomic.get ok and refused = Atomic.get refused in
        Printf.printf
          "chaos: %d/%d answered, %d honestly refused, %d replayed \
           byte-identical, %d worker restarts, drain %.2fs\n"
          ok total refused !replayed restarts drain_s;
        let json =
          Kit.Json.(
            to_string
              (Obj
                 [
                   ("schema", String "hyperbench-chaos/1");
                   ("seed", Int seed);
                   ("fault_spec", String spec);
                   ("clients", Int clients);
                   ("requests_per_client", Int reqs);
                   ("answered_200", Int ok);
                   ("honest_refusals", Int refused);
                   ("replayed", Int !replayed);
                   ("worker_restarts", Int restarts);
                   ("breaker_opened",
                    Int (Kit.Metrics.get snap "serve.breaker.solver.opened"
                        + Kit.Metrics.get snap
                            "serve.breaker.isolation.opened"));
                   ("drain_seconds", Float drain_s);
                   ("violations",
                    List (List.rev_map (fun v -> String v) !violations));
                 ]))
        in
        write_report "BENCH_chaos.json" json);
    enforce ~leg:"chaos" (List.rev !violations)
end

(* --- main ------------------------------------------------------------------- *)

let () =
  (* A typo'd HB_FAULT spec must not silently run fault-free (the CLI
     applies the same refusal). *)
  (match Kit.Fault.config_error () with
  | Some m ->
      Printf.eprintf "bench: bad HB_FAULT spec: %s\n%!" m;
      exit 1
  | None -> ());
  let scale = env_float "HB_SCALE" 1.0 in
  let budget_seconds = env_float "HB_BUDGET" 0.5 in
  let fuel = match env_int "HB_FUEL" 0 with f when f > 0 -> Some f | _ -> None in
  let budget, budget_for = Experiments.escalating_budget ?fuel budget_seconds in
  let seed = env_int "HB_SEED" 2019 in
  let jobs =
    try Kit.Pool.default_jobs ()
    with Invalid_argument m ->
      Printf.eprintf "bench: %s\n%!" m;
      exit 1
  in
  let gates =
    match Sys.getenv_opt "HB_GATE" with
    | None | Some "" -> []
    | Some path -> (
        match Benchlib.Gate.read path with
        | Ok gates -> gates
        | Error m ->
            Printf.eprintf "bench: HB_GATE: %s\n%!" m;
            exit 1)
  in
  let tables =
    [ "table1"; "table2"; "table3"; "table4"; "table5"; "table6";
      "figure3"; "figure4"; "figure5"; "ablation" ]
  in
  let legs = [ "micro"; "perf"; "repo"; "serve"; "chaos" ] in
  let args = List.tl (Array.to_list Sys.argv) in
  (match List.filter (fun a -> not (List.mem a (tables @ legs))) args with
  | [] -> ()
  | bad ->
      Printf.eprintf "bench: unknown artefact(s): %s\n%!" (String.concat " " bad);
      exit 1);
  let wants name = args = [] || List.mem name args in
  let needs_ctx = List.exists wants tables in
  Printf.printf
    "HyperBench reproduction harness (seed=%d scale=%.2f budget=%s jobs=%d%s)\n\n"
    seed scale
    (match fuel with
     | Some f -> Printf.sprintf "%d fuel" f
     | None -> Printf.sprintf "%.2fs" budget_seconds)
    jobs
    (if Kit.Proc.enabled () then " isolate" else "");
  if needs_ctx then begin
    (* Metrics stay on for the analysis + tables and are switched off
       before the micro benches: bechamel's iteration counts are
       nondeterministic and would pollute the (fuel-reproducible)
       counters reported below. *)
    Kit.Metrics.enabled := true;
    let journal =
      match Sys.getenv_opt "HB_JOURNAL" with
      | Some "" -> None
      | Some p -> Some p
      | None -> Some "BENCH_journal.jsonl"
    in
    let resume = Sys.getenv_opt "HB_RESUME" = Some "1" in
    let t0 = Unix.gettimeofday () in
    let campaign =
      match
        Experiments.prepare_campaign ~seed ~scale ~budget ~budget_for ~jobs
          ?journal ~resume ()
        (* HB_ISOLATE / HB_WALL are picked up inside analyze_outcomes
           (isolate defaults to Kit.Proc.enabled, wall to HB_WALL). *)
      with
      | Ok c -> c
      | Error m ->
          Printf.eprintf "campaign failed: %s\n%!" m;
          exit 6
    in
    let ctx = campaign.Experiments.context in
    let wall = Unix.gettimeofday () -. t0 in
    let solver = Experiments.solver_seconds ctx in
    Printf.printf
      "Prepared %d instances; analysis took %.1fs wall on %d jobs (%.1fs solver time, %.1fx speedup)\n\n"
      (List.length ctx.Experiments.instances)
      wall jobs solver
      (if wall > 0.0 then solver /. wall else 1.0);
    print_endline (Experiments.campaign_summary campaign);
    let emit name render = if wants name then print_endline (render ctx) in
    emit "table1" Experiments.table1;
    emit "table2" Experiments.table2;
    emit "figure3" Experiments.figure3;
    emit "figure4" Experiments.figure4;
    emit "figure5" Experiments.figure5;
    emit "table3" Experiments.table3;
    emit "table4" Experiments.table4;
    emit "table5" Experiments.table5;
    emit "table6" Experiments.table6;
    if wants "ablation" then
      print_endline (Experiments.ablation ~budget ctx);
    let snap = Kit.Metrics.snapshot () in
    print_endline (Experiments.metrics_summary snap);
    write_report "BENCH_metrics.json" (Kit.Metrics.to_json snap);
    Kit.Metrics.enabled := false
  end;
  if wants "repo" then Repo_bench.main ~seed ~scale ~jobs ();
  if wants "serve" then Serve_bench.main ~seed ~gates ();
  (* chaos arms the global fault harness, so it never runs by default —
     only when asked for by name *)
  if List.mem "chaos" args then Serve_chaos.main ~seed ();
  if wants "perf" then Perf.main ~gates ();
  if wants "micro" then micro ()
