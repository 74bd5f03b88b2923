(* The repository benchmark. One run measures one workload:

     hbbench --workload campaign|serve-hit --seed N
             --seconds S --trace 0|1

   Run it from the root of a built checkout (perfbench/run.sh does
   both): the serve workloads start _build/default/bin/hyperbench.exe,
   and caches and span traces go under .perfbench/.

   It prints a human-readable report, then, as its last line, one JSON
   object {"correct", "attempted", "failed", "metrics"}: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. A wrong
   answer, a broken guard or a failed determinism self-check makes
   "correct" false and the exit code 1. *)

(* Every untraced run reports every end-to-end metric; per workload,
   each a median over the run:

   metric           campaign                      serve-hit
   setup_s          repository build, three       daemon spawn to first /healthz
                    before each pass              200 plus warm-up, median of 3
   wall_s           pass over the four phases     closed-loop batch of 6000
                                                  warmed bodies
   undecided_share  Check runs that time out      warm-up answers with verdict
                    under the fuel budget         timeout
   p50_ms           Check run time, all passes    latency from due time at the
                    pooled                        nominal rate, per window
   max_rps          instances per second over     the rate ladder (Serving.max_rps),
                    the median pass               per climb
   peak_rss_mb      VmHWM per pass                daemon VmHWM per daemon

   p99 latencies are printed in the report but are not metrics: on a
   shared host, scheduling stalls of several milliseconds reach more
   than 1% of even an idle sleeper's wake-ups, so a p99 measures the
   host. failed_share is the result's failed / attempted, printed on its
   own line: it is 0 on every correct run, so it is not a metric. *)
let end_to_end =
  [ "setup_s"; "wall_s"; "undecided_share"; "p50_ms"; "max_rps"; "peak_rss_mb" ]

(* Every traced run reports every per-layer metric; one that has no
   meaning on the workload (a daemon figure on the campaign, a campaign
   phase on a serve workload) reads 0 and is listed as not measured. *)
let per_layer =
  [ ("experiments.build_s", "s"); ("experiments.hw_s", "s"); ("experiments.ghd_s", "s");
    ("experiments.frac_s", "s"); ("trace.span_coverage", "ratio");
    ("trace.overhead_share", "ratio"); ("detk.busy_s", "s"); ("detk.subproblems", "count");
    ("detk.memo_hit_ratio", "ratio"); ("ghd.bal_sep_s", "s"); ("ghd.global_bip_s", "s");
    ("ghd.local_bip_s", "s"); ("ghd.bal_sep.accept_ratio", "ratio"); ("ghd.subedges_s", "s");
    ("ghd.subedges.generated", "count"); ("lp.solves", "count"); ("lp.pivots", "count");
    ("lp.pivots_per_solve", "ratio"); ("kit.pool.hw_efficiency", "ratio");
    ("kit.pool.ghd_efficiency", "ratio"); ("serve.handler_ms", "ms");
    ("serve.outside_handler_ms", "ms"); ("hypergraph.parse_us", "us");
    ("hypergraph.binary_parse_us", "us"); ("sql.convert_us", "us"); ("xcsp.read_us", "us");
    ("hypergraph.fingerprint_us", "us"); ("benchlib.result_cache.find_us", "us");
    ("decomp_io.of_text_us", "us"); ("decomp.check_hd_us", "us");
    ("benchlib.result_cache.store_us", "us"); ("detk.solve_ms", "ms");
    ("decomp_io.to_text_us", "us"); ("benchlib.result_cache.hit_ratio", "ratio");
    ("loadgen.late_p99_ms", "ms") ]

let usage () =
  prerr_endline
    "usage: hbbench --workload campaign|serve-hit --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let daemon = "_build/default/bin/hyperbench.exe" and work = ".perfbench" in
  let rec args = function
    | "--workload" :: v :: r -> workload := v; args r
    | "--seed" :: v :: r -> seed := int_of_string_opt v; args r
    | "--seconds" :: v :: r -> seconds := int_of_string_opt v; args r
    | "--trace" :: ("0" | "1" as v) :: r -> trace := Some (v = "1"); args r
    | [] -> ()
    | _ -> usage ()
  in
  args (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some a, Some b, Some c when b >= 1 -> (a, b, c)
    | _ -> usage ()
  in
  let workload = !workload in
  if not (List.mem workload [ "campaign"; "serve-hit" ]) then usage ();
  if workload <> "campaign" && not (Sys.file_exists daemon) then begin
    Printf.eprintf "hbbench: daemon executable %s not found\n" daemon;
    exit 2
  end;
  (try Unix.mkdir work 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let scratch = Filename.concat work (Printf.sprintf "run-%d" (Unix.getpid ())) in
  Unix.mkdir scratch 0o755;
  let e2e, layers =
    Fun.protect
      ~finally:(fun () -> Serving.rm_rf scratch)
      (fun () ->
        match workload with
        | "campaign" -> Campaign.run ~seed ~seconds ~trace
        | _ -> Serving.run ~exe:daemon ~work:scratch ~seed ~seconds ~trace)
  in
  let metrics =
    if not trace then
      List.map (fun n -> List.find (fun x -> x.Bstat.name = n) e2e) end_to_end
    else
      List.map
        (fun (n, unit) ->
          match List.find_opt (fun x -> x.Bstat.name = n) layers with
          | Some x -> x
          | None -> Bstat.m n unit 0.)
        per_layer
  in
  if trace then begin
    let missing =
      List.filter (fun (n, _) -> not (List.exists (fun x -> x.Bstat.name = n) layers)) per_layer
    in
    Printf.printf "not measured on %s: %s\n" workload (String.concat " " (List.map fst missing));
    Printf.printf "span self time (name, count, total s, self s):\n";
    List.iter
      (fun (name, (n, total, self)) -> Printf.printf "  %-36s %7d %10.4f %10.4f\n" name n total self)
      (Bstat.self_times ());
    let path = Filename.concat work (Printf.sprintf "trace-%s-%d.jsonl" workload seed) in
    Bstat.write_spans path;
    Printf.printf "spans written to %s\n" path
  end;
  Printf.printf "failed_share %s %.6f (%d of %d operations)\n" workload
    (Bstat.ratio !Bstat.failed !Bstat.attempted) !Bstat.failed !Bstat.attempted;
  List.iter (Printf.printf "FAILED: %s\n") (List.rev !Bstat.messages);
  let correct = !Bstat.failed = 0 in
  Bstat.emit ~workload ~correct metrics;
  exit (if correct then 0 else 1)
