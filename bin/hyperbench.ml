(* The HyperBench command-line tool: our stand-in for the paper's
   web interface (http://hyperbench.dbai.tuwien.ac.at). It manages a
   repository of hypergraphs on disk, reports their structural properties,
   runs the decomposition algorithms, and converts SQL / XCSP inputs to
   hypergraphs. *)

open Cmdliner

(* Distinct exit codes per failure category, so scripts and CI can tell a
   malformed input from a decomposition or journal problem without parsing
   stderr (1 and 123-125 belong to cmdliner). *)
let exit_hypergraph = 2
let exit_xcsp = 3
let exit_sql = 4
let exit_decomp = 5
let exit_repo = 6
let exit_fuzz = 8
let exit_uncaught = 125

(* Commands are [int Term.t]s under [Cmd.eval']: a failed step prints one
   diagnostic line on stderr and becomes the command's exit code. *)
let ( let* ) r f =
  match r with
  | Error (code, m) ->
      Printf.eprintf "hyperbench: %s\n%!" m;
      code
  | Ok v -> f v

let tag code = Result.map_error (fun m -> (code, m))

(* Diagnostics lead with the file (parse errors already carry "line N:",
   giving file:line); Sys_error messages name the file themselves. *)
let with_path path =
  Result.map_error (fun m ->
      if String.length m >= String.length path
         && String.sub m 0 (String.length path) = path
      then m
      else path ^ ": " ^ m)

(* --- shared arguments ----------------------------------------------------- *)

let dir_arg =
  Arg.(
    value
    & opt string "hyperbench-data"
    & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Repository directory.")

let k_arg =
  Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"Width bound k.")

let timeout_arg =
  Arg.(
    value
    & opt float 60.0
    & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-run timeout in seconds.")

(* Every HB_* knob is checked before the command line is built: option
   defaults below read HB_JOBS and HB_MEM_MB, and a malformed knob must
   exit 1 naming itself before any command runs. *)
let () = Kit.Config.check ~prog:"hyperbench"

let jobs_arg =
  Arg.(
    value
    & opt int (Kit.Config.jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Number of domains for parallel work (default: \\$(b,HB_JOBS) or \
           all cores). 1 forces sequential execution.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print search metrics (Kit.Metrics) after the run.")

let stats_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE"
        ~doc:
          "Write search metrics as JSON to $(docv). With $(docv) = $(b,-) \
           the JSON is the only thing printed on stdout — every table, \
           summary and warning is routed to stderr — so the output can be \
           piped straight into a JSON parser.")

let isolate_arg =
  Arg.(
    value & flag
    & info [ "isolate" ]
        ~doc:
          "Hard isolation: run each task in its own forked worker process, \
           killed by a wall-clock watchdog ($(b,HB_WALL), default the \
           escalated per-attempt budget plus a grace second) and capped by \
           a hard memory rlimit at the soft budget. Implied by \
           $(b,HB_ISOLATE=1).")

(* Enable the metrics registry around [f] when either output was requested,
   then render the table and/or write the JSON file.

   [--stats-json -] is the machine mode: the real stdout is saved, stdout
   is pointed at stderr for the whole run (so every existing print in the
   tool lands on stderr without rewiring each one), and the JSON snapshot
   is written to the saved descriptor at the end — stdout carries exactly
   one JSON document. *)
let with_stats ~stats ~stats_json f =
  if not (stats || stats_json <> None) then f ()
  else begin
    Kit.Metrics.enabled := true;
    let machine_fd =
      if stats_json = Some "-" then begin
        flush stdout;
        let fd = Unix.dup Unix.stdout in
        Unix.dup2 Unix.stderr Unix.stdout;
        Some fd
      end
      else None
    in
    let r = f () in
    let snap = Kit.Metrics.snapshot () in
    Kit.Metrics.enabled := false;
    if stats then print_string (Kit.Metrics.to_table snap);
    (match stats_json with
    | Some "-" | None -> ()
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (Kit.Metrics.to_json snap));
        Printf.eprintf "wrote metrics to %s\n" path);
    (match machine_fd with
    | Some fd ->
        flush stdout;
        let b = Bytes.of_string (Kit.Metrics.to_json snap ^ "\n") in
        let rec put off len =
          if len > 0 then begin
            let k = Unix.write fd b off len in
            put (off + k) (len - k)
          end
        in
        put 0 (Bytes.length b);
        Unix.dup2 fd Unix.stdout;
        Unix.close fd
    | None -> ());
    r
  end

let load_hypergraph path =
  let parse, code =
    if Filename.check_suffix path ".xml" then (Xcsp3.Xcsp.read_report, exit_xcsp)
    else (Hg.Hypergraph.parse_report, exit_hypergraph)
  in
  match Benchlib.Fsio.read_file path with
  | Error m -> Error (code, m)
  | Ok source ->
      Result.map_error
        (fun ds -> (code, Kit.Diag.to_message ~file:path ~source ds))
        (parse source)

(* Tolerant repository load: corrupt entries become stderr warnings, not
   failures — a damaged instance must not take the rest of the repository
   (or a whole campaign) down with it. *)
let load_repository ~dir =
  match Benchlib.Repository.load ~dir with
  | Error m -> Error (exit_repo, m)
  | Ok { Benchlib.Repository.instances; skipped } ->
      List.iter
        (fun (label, msg) ->
          Printf.eprintf "warning: skipped %s: %s\n%!" label msg)
        skipped;
      Ok instances

(* --- build ----------------------------------------------------------------- *)

let build_cmd =
  let run dir seed scale =
    let instances = Benchlib.Repository.build ~seed ~scale () in
    Benchlib.Repository.save ~dir instances;
    Printf.printf "wrote %d instances to %s\n" (List.length instances) dir;
    0
  in
  let seed =
    Arg.(value & opt int 2019 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
  in
  let scale =
    Arg.(
      value & opt float 1.0 & info [ "scale" ] ~docv:"S" ~doc:"Repository scale factor.")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Generate the benchmark repository on disk.")
    Term.(const run $ dir_arg $ seed $ scale)

(* --- list ------------------------------------------------------------------ *)

let list_cmd =
  let run dir group source =
    let* instances = load_repository ~dir in
    let instances =
      match group with
      | None -> instances
      | Some g ->
          List.filter
            (fun i ->
              Benchlib.Group.of_id g = Some i.Benchlib.Instance.group)
            instances
    in
    let instances =
      match source with
      | None -> instances
      | Some s -> List.filter (fun i -> i.Benchlib.Instance.source = s) instances
    in
    Printf.printf "%-24s %-16s %-12s %9s %7s %6s\n" "name" "group" "source"
      "vertices" "edges" "arity";
    List.iter
      (fun i ->
        let h = i.Benchlib.Instance.hg in
        Printf.printf "%-24s %-16s %-12s %9d %7d %6d\n" i.Benchlib.Instance.name
          (Benchlib.Group.id i.Benchlib.Instance.group)
          i.Benchlib.Instance.source h.Hg.Hypergraph.n_vertices
          h.Hg.Hypergraph.n_edges (Hg.Hypergraph.arity h))
      instances;
    0
  in
  let group =
    Arg.(
      value
      & opt (some string) None
      & info [ "group" ] ~docv:"GROUP"
          ~doc:"Filter by group id (e.g. cq-application).")
  in
  let source =
    Arg.(
      value
      & opt (some string) None
      & info [ "source" ] ~docv:"SOURCE" ~doc:"Filter by source collection.")
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List repository instances.")
    Term.(const run $ dir_arg $ group $ source)

(* --- analyze ----------------------------------------------------------------- *)

let analyze_cmd =
  let run path timeout max_k stats stats_json =
    let* h = load_hypergraph path in
    with_stats ~stats ~stats_json (fun () ->
        let deadline () = Kit.Deadline.of_seconds timeout in
        let p = Hg.Properties.profile ~deadline:(deadline ()) h in
        Format.printf "%a@." Hg.Properties.pp_profile p;
        Printf.printf "acyclic (GYO): %b\n" (Hg.Gyo.is_acyclic h);
        let tw_ub, _ = Hg.Primal.upper_bound h in
        Printf.printf "primal treewidth: %d <= tw <= %d\n"
          (Hg.Primal.lower_bound h) tw_ub;
        let rec levels k =
          if k > max_k then Printf.printf "hw > %d (gave up at cap)\n" max_k
          else
            match Detk.solve ~deadline:(deadline ()) h ~k with
            | Detk.Decomposition _ -> Printf.printf "hw = %d\n" k
            | Detk.No_decomposition -> levels (k + 1)
            | Detk.Timeout ->
                Printf.printf "hw >= %d (timeout at k = %d)\n" k k
        in
        levels 1;
        0)
  in
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Hypergraph file (.hg) or XCSP file (.xml).")
  in
  let max_k =
    Arg.(value & opt int 10 & info [ "max-k" ] ~docv:"K" ~doc:"Largest k to try.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Structural properties and hypertree width.")
    Term.(const run $ path $ timeout_arg $ max_k $ stats_arg $ stats_json_arg)

(* --- decompose --------------------------------------------------------------- *)

let method_conv =
  Arg.enum
    [ ("hd", `Hd); ("globalbip", `Global); ("localbip", `Local);
      ("balsep", `Balsep); ("portfolio", `Portfolio) ]

let decompose_cmd =
  let run path k meth timeout jobs isolate dot save stats stats_json =
    let isolate = isolate || Kit.Config.isolate () in
    let* h = load_hypergraph path in
    with_stats ~stats ~stats_json @@ fun () ->
    let deadline () = Kit.Deadline.of_seconds timeout in
    let outcome =
      match meth with
      | `Hd -> Detk.solve ~deadline:(deadline ()) h ~k
      | `Global -> (Ghd.Global_bip.solve ~deadline:(deadline ()) h ~k).Ghd.Global_bip.outcome
      | `Local -> (Ghd.Local_bip.solve ~deadline:(deadline ()) h ~k).Ghd.Local_bip.outcome
      | `Balsep -> (Ghd.Bal_sep.solve ~deadline:(deadline ()) h ~k).Ghd.Bal_sep.outcome
      | `Portfolio -> (
          (* With more than one job the algorithms race on separate
             domains and the first exact verdict cancels the rest
             cooperatively; under --isolate they race as forked processes
             and the winner SIGKILLs the losers. *)
          let portfolio ~budget h ~k =
            if isolate then
              Ghd.Portfolio.race_isolated ~budget ~wall:(timeout +. 1.0) h ~k
            else if jobs > 1 then Ghd.Portfolio.race ~budget h ~k
            else Ghd.Portfolio.check ~budget h ~k
          in
          match portfolio ~budget:deadline h ~k with
          | Ghd.Portfolio.Yes (d, alg) ->
              Printf.printf "decided by %s\n" (Ghd.Portfolio.algorithm_name alg);
              Detk.Decomposition d
          | Ghd.Portfolio.No alg ->
              Printf.printf "decided by %s\n" (Ghd.Portfolio.algorithm_name alg);
              Detk.No_decomposition
          | Ghd.Portfolio.All_timeout -> Detk.Timeout)
    in
    (match outcome with
    | Detk.Decomposition d ->
        Printf.printf "width <= %d: YES (width %d)\n" k (Decomp.width d);
        (match save with
        | Some path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out_noerr oc)
              (fun () -> output_string oc (Decomp_io.to_text h d));
            Printf.printf "saved to %s\n" path
        | None -> ());
        if dot then print_string (Decomp.to_dot h d)
        else Format.printf "%a" (fun fmt -> Decomp.pp h fmt) d
    | Detk.No_decomposition -> Printf.printf "width <= %d: NO\n" k
    | Detk.Timeout -> Printf.printf "width <= %d: TIMEOUT\n" k);
    0
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Hypergraph file.")
  in
  let meth =
    Arg.(
      value
      & opt method_conv `Hd
      & info [ "m"; "method" ] ~docv:"METHOD"
          ~doc:"hd | globalbip | localbip | balsep | portfolio.")
  in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit GraphViz instead of text.")
  in
  let save =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the decomposition to a file.")
  in
  Cmd.v
    (Cmd.info "decompose" ~doc:"Compute an HD or GHD of width at most k.")
    Term.(
      const run $ path $ k_arg $ meth $ timeout_arg $ jobs_arg $ isolate_arg
      $ dot $ save $ stats_arg $ stats_json_arg)

(* --- validate ------------------------------------------------------------------ *)

let validate_cmd =
  let run hg_path decomp_path strict =
    let* h = load_hypergraph hg_path in
    let* text = tag exit_decomp (Benchlib.Fsio.read_file decomp_path) in
    let* d = tag exit_decomp (with_path decomp_path (Decomp_io.of_text h text)) in
    let violations = if strict then Decomp.check_hd h d else Decomp.check_ghd h d in
    (match violations with
    | [] ->
        Printf.printf "VALID %s of width %d (%d nodes)\n"
          (if strict then "HD" else "GHD")
          (Decomp.width d) (Decomp.size d)
    | vs ->
        Printf.printf "INVALID: %d violation(s)\n" (List.length vs);
        List.iter (fun v -> Format.printf "  %a@." (Decomp.pp_violation h) v) vs);
    0
  in
  let hg_path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"HYPERGRAPH" ~doc:"Hypergraph file.")
  in
  let decomp_path =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DECOMPOSITION" ~doc:"Decomposition file.")
  in
  let strict =
    Arg.(value & flag & info [ "hd" ] ~doc:"Check the HD special condition too.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check a stored decomposition against a hypergraph (the upper bounds are more reliable than lower bounds, section 2).")
    Term.(const run $ hg_path $ decomp_path $ strict)

(* --- improve ------------------------------------------------------------------ *)

let improve_cmd =
  let run path k timeout frac stats stats_json =
    let* h = load_hypergraph path in
    with_stats ~stats ~stats_json @@ fun () ->
    let deadline () = Kit.Deadline.of_seconds timeout in
    (match Detk.solve ~deadline:(deadline ()) h ~k with
    | Detk.Decomposition d ->
        let base = Fhd.Improve_hd.improve h d in
        Printf.printf "integral width: %d\nImproveHD width: %.3f\n"
          (Decomp.width d)
          (Decomp.Fractional.width base);
        if frac then begin
          match Fhd.Frac_improve_hd.best ~deadline:(deadline ()) h ~k with
          | Some (fhd, w) ->
              Printf.printf "FracImproveHD width: %.3f\n" w;
              Format.printf "%a" (fun fmt -> Decomp.Fractional.pp h fmt) fhd
          | None -> Printf.printf "FracImproveHD: no result\n"
        end
    | Detk.No_decomposition -> Printf.printf "no HD of width <= %d\n" k
    | Detk.Timeout -> Printf.printf "timeout\n");
    0
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Hypergraph file.")
  in
  let frac =
    Arg.(value & flag & info [ "frac" ] ~doc:"Also run FracImproveHD.")
  in
  Cmd.v
    (Cmd.info "improve" ~doc:"Fractionally improve an HD (paper §6.5).")
    Term.(
      const run $ path $ k_arg $ timeout_arg $ frac $ stats_arg
      $ stats_json_arg)

(* --- convert ------------------------------------------------------------------- *)

let read_schema_file path =
  (* Format: one "table: col1, col2" line per relation; # comments. *)
  match Benchlib.Fsio.read_file path with
  | Error _ as e -> e
  | Ok text ->
  let rec go acc = function
    | [] -> Ok (Sql.Schema.of_list (List.rev acc))
    | line :: rest ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc rest
        else (
          match String.index_opt line ':' with
          | None -> Error (Printf.sprintf "bad schema line: %s" line)
          | Some i ->
              let name = String.trim (String.sub line 0 i) in
              let cols =
                String.sub line (i + 1) (String.length line - i - 1)
                |> String.split_on_char ','
                |> List.map String.trim
                |> List.filter (( <> ) "")
              in
              go ((name, cols) :: acc) rest)
  in
  go [] (String.split_on_char '\n' text)

let convert_sql_cmd =
  let run path schema_path =
    let* sql = tag exit_sql (Benchlib.Fsio.read_file path) in
    let* schema =
      match schema_path with
      | None -> Ok Sql.Schema.empty
      | Some p -> tag exit_sql (with_path p (read_schema_file p))
    in
    let* results =
      match Sql.Convert.sql_to_hypergraphs_report ~schema sql with
      | Ok r -> Ok r
      | Error ds ->
          (* The caret report is the diagnostic; the summary line below it
             (via [let*]) keeps the one-line-on-stderr contract. *)
          prerr_string (Kit.Diag.render_all ~file:path ~source:sql ds);
          Error
            ( exit_sql,
              Printf.sprintf "%s: %d error%s" path (List.length ds)
                (if List.length ds = 1 then "" else "s") )
    in
    List.iter
      (fun (id, conv) ->
        Printf.printf "%% query %s\n" id;
        List.iter (Printf.printf "%% warning: %s\n") conv.Sql.Convert.warnings;
        match conv.Sql.Convert.hypergraph with
        | Some h -> print_string (Hg.Hypergraph.to_string h)
        | None -> print_endline "% (no hypergraph)")
      results;
    0
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"SQL file.")
  in
  let schema =
    Arg.(
      value
      & opt (some file) None
      & info [ "schema" ] ~docv:"FILE" ~doc:"Schema file (table: col1, col2).")
  in
  Cmd.v
    (Cmd.info "convert-sql" ~doc:"SQL query to hypergraph(s) (paper §5.2-5.4).")
    Term.(const run $ path $ schema)

let convert_xcsp_cmd =
  let run path =
    let* src = tag exit_xcsp (Benchlib.Fsio.read_file path) in
    let* h =
      match Xcsp3.Xcsp.read_report src with
      | Ok h -> Ok h
      | Error ds ->
          prerr_string (Kit.Diag.render_all ~file:path ~source:src ds);
          Error
            ( exit_xcsp,
              Printf.sprintf "%s: %d error%s" path (List.length ds)
                (if List.length ds = 1 then "" else "s") )
    in
    print_string (Hg.Hypergraph.to_string h);
    0
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"XCSP XML file.")
  in
  Cmd.v
    (Cmd.info "convert-xcsp" ~doc:"XCSP instance to hypergraph (paper §5.5).")
    Term.(const run $ path)

(* --- stats ---------------------------------------------------------------------- *)

let stats_cmd =
  let run dir =
    let* instances = load_repository ~dir in
    Printf.printf "%-16s %10s %12s %10s %8s\n" "group" "instances" "max edges"
      "max vert" "arity";
    List.iter
      (fun (g, insts) ->
        if insts <> [] then begin
          let stat f = List.fold_left (fun m i -> Stdlib.max m (f i.Benchlib.Instance.hg)) 0 insts in
          Printf.printf "%-16s %10d %12d %10d %8d\n" (Benchlib.Group.id g)
            (List.length insts)
            (stat (fun h -> h.Hg.Hypergraph.n_edges))
            (stat (fun h -> h.Hg.Hypergraph.n_vertices))
            (stat Hg.Hypergraph.arity)
        end)
      (Benchlib.Repository.by_group instances);
    0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Summary statistics of a repository.")
    Term.(const run $ dir_arg)

(* --- repo (packed binary repository) --------------------------------------------- *)

let pack_dir_arg =
  Arg.(
    value
    & opt string "hyperbench-pack"
    & info [ "out"; "pack" ] ~docv:"DIR" ~doc:"Packed repository directory.")

let repo_pack_cmd =
  let run dir out shards =
    let* instances = load_repository ~dir in
    match Benchlib.Repository.pack ~dir:out ~shards instances with
    | () ->
        Printf.printf "packed %d instances into %d shard(s) in %s\n"
          (List.length instances) shards out;
        0
    | exception Invalid_argument m ->
        Printf.eprintf "hyperbench: %s\n%!" m;
        exit_repo
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Split into $(docv) shard files; instance i goes to shard i mod \
             N — the same split as campaign $(b,--shard).")
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:
         "Pack a text repository ($(b,--dir)) into the compact binary \
          format: varint-framed entries with per-instance fingerprints, \
          one atomic file per shard.")
    Term.(const run $ dir_arg $ pack_dir_arg $ shards)

let repo_verify_cmd =
  let run dir =
    match Benchlib.Repository.load_pack ~dir with
    | Error m ->
        Printf.eprintf "hyperbench: %s\n%!" m;
        exit_repo
    | Ok { Benchlib.Repository.instances; skipped } ->
        Printf.printf "verified %d instance(s)\n" (List.length instances);
        if skipped = [] then 0
        else begin
          List.iter
            (fun (label, msg) ->
              Printf.eprintf "hyperbench: corrupt entry %s: %s\n%!" label msg)
            skipped;
          Printf.eprintf "hyperbench: %d corrupt entr(ies)\n%!"
            (List.length skipped);
          exit_repo
        end
  in
  let dir =
    Arg.(
      value
      & opt string "hyperbench-pack"
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Packed repository directory.")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Decode every packed entry and recompute its fingerprint; any \
          mismatch or undecodable entry is reported and fails the command.")
    Term.(const run $ dir)

let repo_cmd =
  Cmd.group
    (Cmd.info "repo"
       ~doc:"Compact binary repository: pack and integrity-verify.")
    [ repo_pack_cmd; repo_verify_cmd ]

(* --- merge-journals --------------------------------------------------------------- *)

let merge_journals_cmd =
  let run into paths =
    match Experiments.merge_journals ~into paths with
    | Error m ->
        Printf.eprintf "hyperbench: %s\n%!" m;
        exit_repo
    | Ok (entries, corrupt) ->
        Printf.printf "merged %d entr(ies) into %s\n" entries into;
        if corrupt > 0 then
          Printf.eprintf "warning: skipped %d corrupt line(s)\n%!" corrupt;
        0
  in
  let into =
    Arg.(
      required
      & opt (some string) None
      & info [ "into" ] ~docv:"FILE" ~doc:"Output journal path.")
  in
  let paths =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"JOURNAL" ~doc:"Shard journals to merge.")
  in
  Cmd.v
    (Cmd.info "merge-journals"
       ~doc:
         "Merge per-shard campaign journals into one journal equal to the \
          unsharded run's (dedup by instance, repository order; headers \
          must match).")
    Term.(const run $ into $ paths)

(* --- campaign ------------------------------------------------------------------- *)

let shard_conv =
  let parse s =
    match String.split_on_char '/' s with
    | [ a; b ] -> (
        match (int_of_string_opt a, int_of_string_opt b) with
        | Some i, Some n when n >= 1 && i >= 0 && i < n -> Ok (i, n)
        | _ -> Error (`Msg "expected I/N with 0 <= I < N"))
    | _ -> Error (`Msg "expected shard as I/N, e.g. 0/2")
  in
  Arg.conv (parse, fun fmt (i, n) -> Format.fprintf fmt "%d/%d" i n)

let campaign_cmd =
  let run seed scale timeout fuel max_k jobs journal resume retries mem_limit
      isolate shard cache_dir tables stats stats_json =
    let isolate = isolate || Kit.Config.isolate () in
    (* --cache DIR wins over the HB_CACHE knob; neither set means no
       cache and no cache.* metric ticks. *)
    let cache =
      match cache_dir with
      | Some dir -> Some (Benchlib.Result_cache.create ~dir)
      | None -> Benchlib.Result_cache.of_env ()
    in
    (* --resume FILE implies journaling to that same file. *)
    let journal = match resume with Some p -> Some p | None -> journal in
    let budget, budget_for = Experiments.escalating_budget ?fuel timeout in
    (* The watchdog shadows the cooperative budget: HB_WALL when set; the
       escalated per-attempt timeout plus a grace second otherwise (a
       well-behaved task always hits its soft deadline first); for fuel
       budgets, whose wall-clock cost is unknown, the 3600 s default. *)
    let wall ~attempt =
      match (Kit.Config.wall (), fuel) with
      | Some w, _ -> w
      | None, Some _ -> Kit.Proc.default_wall
      | None, None -> (timeout *. float_of_int (1 lsl attempt)) +. 1.0
    in
    with_stats ~stats ~stats_json @@ fun () ->
    let* c =
      tag exit_repo
        (Experiments.prepare_campaign ~seed ~scale ~budget ~budget_for
           ?retries ?mem_mb:mem_limit ~max_k ~jobs ~isolate ~wall ?shard ?cache
           ?journal ~resume:(resume <> None) ())
    in
    print_string (Experiments.campaign_summary c);
    (match journal with
    | Some path -> Printf.eprintf "journal: %s\n" path
    | None -> ());
    if tables then begin
      let ctx = c.Experiments.context in
      print_newline ();
      List.iter
        (fun render -> print_string (render ctx ^ "\n"))
        [
          Experiments.table1; Experiments.table2; Experiments.figure3;
          Experiments.figure4; Experiments.figure5; Experiments.table3;
          Experiments.table4; Experiments.table5; Experiments.table6;
        ]
    end;
    0
  in
  let seed =
    Arg.(value & opt int 2019 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
  in
  let scale =
    Arg.(
      value & opt float 0.2
      & info [ "scale" ] ~docv:"S" ~doc:"Repository scale factor.")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Deterministic per-run budget in solver steps (overrides \
             $(b,--timeout); same results at any $(b,--jobs)).")
  in
  let max_k =
    Arg.(value & opt int 8 & info [ "max-k" ] ~docv:"K" ~doc:"Largest k to try.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Write a crash-safe JSONL journal: one line per finished \
             instance, flushed immediately.")
  in
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume from journal $(docv): recorded instances are not \
             rerun, and new outcomes are appended to the same journal.")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry a failed instance up to $(docv) times with doubling \
             budget (default: $(b,HB_RETRIES) or 0).")
  in
  let mem_limit =
    Arg.(
      value
      & opt (some int) None
      & info [ "mem-limit" ] ~docv:"MB"
          ~doc:
            "Soft memory budget: record out_of_memory for the running \
             instance when the live heap exceeds $(docv) MB (default: \
             $(b,HB_MEM_MB); 0 disables). Under $(b,--isolate) the same \
             value is also installed as a hard per-worker rlimit.")
  in
  let tables =
    Arg.(
      value & flag
      & info [ "tables" ] ~doc:"Also print every table and figure.")
  in
  let shard =
    Arg.(
      value
      & opt (some shard_conv) None
      & info [ "shard" ] ~docv:"I/N"
          ~doc:
            "Run only instances with index mod N = I (deterministic by \
             repository index). Journals of the N shards merge with \
             $(b,merge-journals) into the unsharded journal.")
  in
  let cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Content-addressed result cache: reuse validated verdicts \
             keyed by hypergraph fingerprint, method and k (default: the \
             $(b,HB_CACHE) environment knob).")
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Fault-tolerant full analysis: per-instance crash containment, \
          outcome journal, checkpoint/resume, retry with escalating \
          budgets, and optional hard process isolation ($(b,--isolate)).")
    Term.(
      const run $ seed $ scale $ timeout_arg $ fuel $ max_k $ jobs_arg
      $ journal $ resume $ retries $ mem_limit $ isolate_arg $ shard $ cache
      $ tables $ stats_arg $ stats_json_arg)

(* --- serve ---------------------------------------------------------------- *)

let serve_cmd =
  let run host port jobs queue rate max_body timeout isolate mem_mb cache =
    (* The daemon always records: /metrics is part of the surface. *)
    Kit.Metrics.enabled := true;
    let scfg =
      {
        (Serve.Server.default_config ()) with
        host;
        port;
        jobs;
        queue;
        rate;
        burst = Float.max rate 8.;
        max_body;
      }
    in
    let svc =
      {
        (Benchlib.Service.default_config ()) with
        Benchlib.Service.cache =
          (match cache with
          | Some dir -> Some (Benchlib.Result_cache.create ~dir)
          | None -> Benchlib.Result_cache.of_env ());
        isolate = isolate || Kit.Config.isolate ();
        mem_mb;
        default_timeout = timeout;
      }
    in
    match Serve.Server.create scfg (Benchlib.Service.handler svc) with
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "hyperbench: cannot bind %s:%d: %s\n%!" host port
          (Unix.error_message e);
        exit_repo
    | server ->
        (* The startup line is part of the protocol: tests and scripts
           parse the bound port from it (needed with --port 0). *)
        Printf.printf "hyperbenchd listening on http://%s:%d\n%!" host
          (Serve.Server.port server);
        let stop _ = Serve.Server.stop server in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Serve.Server.serve server;
        0
  in
  let dcfg = Serve.Server.default_config () in
  let host =
    Arg.(
      value
      & opt string dcfg.Serve.Server.host
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let port =
    Arg.(
      value
      & opt int dcfg.Serve.Server.port
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:
            "TCP port (default 8080); 0 picks an ephemeral port, printed \
             in the startup line.")
  in
  let queue =
    Arg.(
      value
      & opt int dcfg.Serve.Server.queue
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission queue depth (default 64); beyond it new connections \
             get 429 + Retry-After.")
  in
  let rate =
    Arg.(
      value
      & opt float dcfg.Serve.Server.rate
      & info [ "rate" ] ~docv:"R"
          ~doc:
            "Per-client token-bucket rate limit in requests/second \
             (default 0, which disables it).")
  in
  let max_body =
    Arg.(
      value
      & opt int dcfg.Serve.Server.max_body
      & info [ "max-body" ] ~docv:"BYTES"
          ~doc:
            "Request body cap in bytes (default 8 MiB); larger payloads get \
             413.")
  in
  let req_timeout =
    Arg.(
      value
      & opt float 10.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Default per-request solve budget (clients may lower it).")
  in
  let mem_limit =
    Arg.(
      value
      & opt (some int) (Kit.Config.mem_mb ())
      & info [ "mem-limit" ] ~docv:"MB"
          ~doc:
            "Hard memory rlimit per isolated request (default: \
             $(b,HB_MEM_MB)); needs $(b,--isolate).")
  in
  let cache =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache" ] ~docv:"DIR"
          ~doc:
            "Serve repeat queries from the content-addressed result cache \
             (default: the $(b,HB_CACHE) environment knob).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run hyperbenchd: a persistent HTTP daemon answering POST \
          /decompose with width and decomposition JSON, with /healthz \
          (per-subsystem circuit-breaker state) and /metrics. Crashed \
          solve workers are restarted with backoff; persistent failures \
          open a breaker and the daemon degrades to cached answers or \
          honest 503 + Retry-After. Graceful drain on SIGTERM/SIGINT: \
          stop accepting, answer everything already accepted, exit 0. \
          Timeouts come from $(b,HB_IDLE) (keep-alive idle, 5 s), \
          $(b,HB_READ_TIMEOUT) (mid-request stall budget, 10 s), \
          $(b,HB_WRITE_TIMEOUT) (response send budget, 30 s) and \
          $(b,HB_DRAIN) (drain grace, 0.25 s); $(b,HB_FAULT) arms the \
          chaos harness, including the network kinds \
          stall/reset/torn at serve.read and serve.write and worker \
          kills at serve.worker.")
    Term.(
      const run $ host $ port $ jobs_arg $ queue $ rate $ max_body
      $ req_timeout $ isolate_arg $ mem_limit $ cache)

(* --- fuzz ------------------------------------------------------------------ *)

let fuzz_cmd =
  let run format cases seed out =
    let* formats =
      if format = "all" then Ok Benchlib.Fuzz_driver.all_formats
      else
        match Benchlib.Fuzz_driver.format_of_string format with
        | Some f -> Ok [ f ]
        | None ->
            Error
              ( exit_fuzz,
                "unknown format: " ^ format ^ " (expected sql|xcsp|hg|hbx|all)"
              )
    in
    let crashed = ref false in
    List.iter
      (fun fmt ->
        let name = Benchlib.Fuzz_driver.format_name fmt in
        let t0 = Unix.gettimeofday () in
        let s = Benchlib.Fuzz_driver.run fmt ~cases ~seed in
        let dt = Unix.gettimeofday () -. t0 in
        Printf.printf
          "%-5s %6d cases  parsed %6d  rejected %6d  crashes %d  (%.2fs)\n%!"
          name s.Benchlib.Fuzz_driver.cases s.parsed s.rejected
          (List.length s.failures) dt;
        List.iter
          (fun (f : Benchlib.Fuzz_driver.failure) ->
            crashed := true;
            Printf.eprintf "hyperbench: fuzz %s seed %d case %d: %s\n%!" name
              seed f.index f.outcome;
            let path = Printf.sprintf "%s-%s-%d.bin" out name f.index in
            let oc = open_out_bin path in
            output_string oc f.shrunk;
            close_out oc;
            Printf.eprintf
              "hyperbench: shrunk reproducer (%d of %d bytes) written to %s\n%!"
              (String.length f.shrunk)
              (String.length f.input)
              path)
          s.failures)
      formats;
    if !crashed then exit_fuzz else 0
  in
  let format =
    Arg.(
      value & opt string "all"
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Frontend to fuzz: $(b,sql), $(b,xcsp), $(b,hg), $(b,hbx) or \
                $(b,all).")
  in
  let cases =
    Arg.(
      value & opt int 2000
      & info [ "cases" ] ~docv:"N" ~doc:"Cases per format.")
  in
  let seed =
    Arg.(
      value & opt int 2019
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Base seed; case i derives its own stream from (SEED, i), so a \
             reported case replays without regenerating its predecessors.")
  in
  let out =
    Arg.(
      value & opt string "fuzz-failure"
      & info [ "out" ] ~docv:"PREFIX"
          ~doc:"Prefix for shrunk-reproducer artifacts ($(docv)-FMT-CASE.bin).")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Throw N deterministic adversarial inputs (grammar-level \
          pathologies plus byte mutations of valid corpora) at each parsing \
          frontend and require a clean Ok/Error from every one — any crash, \
          stack overflow or memory blow-up fails with exit code 8 and a \
          ddmin-shrunk reproducer on disk.")
    Term.(const run $ format $ cases $ seed $ out)

let () =
  let info =
    Cmd.info "hyperbench" ~version:"1.0"
      ~doc:"HyperBench: hypergraph benchmark and decomposition tool"
  in
  let cli =
    Cmd.group info
      [
        build_cmd; list_cmd; analyze_cmd; decompose_cmd; validate_cmd;
        improve_cmd; convert_sql_cmd; convert_xcsp_cmd; stats_cmd;
        repo_cmd; merge_journals_cmd; campaign_cmd; serve_cmd; fuzz_cmd;
      ]
  in
  (* Last-resort containment: anything that escapes a command becomes one
     diagnostic line and a distinct exit code, never an abort trace. *)
  exit
    (try Cmd.eval' cli
     with e ->
       Printf.eprintf "hyperbench: uncaught exception: %s\n%!"
         (Printexc.to_string e);
       exit_uncaught)
