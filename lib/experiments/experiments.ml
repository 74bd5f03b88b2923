module Analysis = Benchlib.Analysis
module Instance = Benchlib.Instance
module Repository = Benchlib.Repository
module Group = Benchlib.Group
module Stats = Benchlib.Stats

type context = {
  instances : Instance.t list;
  records : Analysis.record list;
  ghd : Analysis.ghd_record list;
  frac : Analysis.frac_record list;
}

let group_records ctx g =
  List.filter (fun r -> r.Analysis.instance.Instance.group = g) ctx.records

(* --- Table 1 ---------------------------------------------------------------- *)

let is_cyclic (r : Analysis.record) =
  (* hw >= 2: the k = 1 check answered "no" (or a higher exact hw is
     known). *)
  match r.Analysis.hw with
  | Analysis.Exact k | Analysis.Upper k -> k >= 2
  | Analysis.Open_above _ -> (
      match r.Analysis.hw_runs with
      | { k = 1; outcome = `No; _ } :: _ -> true
      | _ -> false)

let table1 ctx =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Table 1: Overview of benchmark instances\n";
  Buffer.add_string buf
    (Printf.sprintf "%-18s %-16s %14s %10s\n" "Benchmark" "Group" "No. instances"
       "hw >= 2");
  let total = ref 0 and total_cyclic = ref 0 in
  List.iter
    (fun (source, insts) ->
      let recs =
        List.filter
          (fun r -> r.Analysis.instance.Instance.source = source)
          ctx.records
      in
      let cyclic = List.length (List.filter is_cyclic recs) in
      total := !total + List.length insts;
      total_cyclic := !total_cyclic + cyclic;
      Buffer.add_string buf
        (Printf.sprintf "%-18s %-16s %14d %10d\n" source
           (Group.name (List.hd insts).Instance.group)
           (List.length insts) cyclic))
    (Repository.sources ctx.instances);
  Buffer.add_string buf
    (Printf.sprintf "%-18s %-16s %14d %10d\n" "Total" "" !total !total_cyclic);
  Buffer.contents buf

(* --- Table 2 ---------------------------------------------------------------- *)

let table2 ctx =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "Table 2: Properties of all benchmark instances\n";
  let metrics : (string * (Analysis.record -> int option)) list =
    [
      ("Deg", fun r -> Some r.Analysis.profile.Hg.Properties.degree);
      ("BIP", fun r -> Some r.Analysis.profile.Hg.Properties.bip);
      ("3-BMIP", fun r -> Some r.Analysis.profile.Hg.Properties.bmip3);
      ("4-BMIP", fun r -> Some r.Analysis.profile.Hg.Properties.bmip4);
      ("VC-dim", fun r -> r.Analysis.profile.Hg.Properties.vc_dim);
    ]
  in
  List.iter
    (fun g ->
      let recs = group_records ctx g in
      if recs <> [] then begin
        Buffer.add_string buf (Printf.sprintf "\n%s (%d instances)\n" (Group.name g) (List.length recs));
        Buffer.add_string buf
          (Printf.sprintf "%-4s %8s %8s %8s %8s %8s\n" "i" "Deg" "BIP" "3-BMIP"
             "4-BMIP" "VC-dim");
        let hists =
          List.map (fun (_, m) -> Stats.property_histogram m recs) metrics
        in
        let label = [| "0"; "1"; "2"; "3"; "4"; "5"; ">5" |] in
        for i = 0 to 6 do
          Buffer.add_string buf
            (Printf.sprintf "%-4s %8d %8d %8d %8d %8d\n" label.(i)
               (List.nth hists 0).(i) (List.nth hists 1).(i)
               (List.nth hists 2).(i) (List.nth hists 3).(i)
               (List.nth hists 4).(i))
        done;
        (* The edge-clique-cover condition discussed in section 2: how many
           instances have more variables than constraints. *)
        let n_gt_m =
          List.length
            (List.filter
               (fun (r : Analysis.record) ->
                 Hg.Properties.has_more_vertices_than_edges
                   r.Analysis.instance.Instance.hg)
               recs)
        in
        Buffer.add_string buf
          (Printf.sprintf "n > m (edge-clique-cover applicable): %d of %d\n"
             n_gt_m (List.length recs))
      end)
    Group.all;
  Buffer.contents buf

(* --- Figure 3 ---------------------------------------------------------------- *)

let pct part total =
  if total = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total

let figure3 ctx =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "Figure 3: Hypergraph sizes (% of group)\n";
  let render title buckets_of labels =
    Buffer.add_string buf (Printf.sprintf "\n%s\n%-16s" title "");
    Array.iter (fun l -> Buffer.add_string buf (Printf.sprintf "%8s" l)) labels;
    Buffer.add_char buf '\n';
    List.iter
      (fun g ->
        let recs = group_records ctx g in
        if recs <> [] then begin
          let b = buckets_of recs in
          let total = Array.fold_left ( + ) 0 b in
          Buffer.add_string buf (Printf.sprintf "%-16s" (Group.name g));
          Array.iter
            (fun v -> Buffer.add_string buf (Printf.sprintf "%7.1f%%" (pct v total)))
            b;
          Buffer.add_char buf '\n'
        end)
      Group.all
  in
  let size_labels = [| "1-10"; "11-20"; "21-30"; "31-40"; "41-50"; ">50" |] in
  render "Vertices"
    (Stats.size_buckets (fun r -> r.Analysis.profile.Hg.Properties.vertices))
    size_labels;
  render "Edges"
    (Stats.size_buckets (fun r -> r.Analysis.profile.Hg.Properties.edges))
    size_labels;
  render "Arity" Stats.arity_buckets [| "1-5"; "6-10"; "11-15"; "16-20"; ">20" |];
  Buffer.contents buf

(* --- Figure 4 ---------------------------------------------------------------- *)

let figure4 ctx =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Figure 4: HW analysis per group and k (avg runtimes in s)\n";
  List.iter
    (fun g ->
      let recs = group_records ctx g in
      if recs <> [] then begin
        Buffer.add_string buf (Printf.sprintf "\n%s\n" (Group.name g));
        Buffer.add_string buf
          (Printf.sprintf "%-4s %12s %12s %9s\n" "k" "yes (avg s)" "no (avg s)"
             "timeout");
        let max_k =
          List.fold_left
            (fun m r ->
              List.fold_left (fun m (run : Analysis.hw_run) -> Stdlib.max m run.k) m
                r.Analysis.hw_runs)
            1 recs
        in
        for k = 1 to max_k do
          let outcomes =
            List.filter_map
              (fun r ->
                List.find_opt (fun (run : Analysis.hw_run) -> run.k = k) r.Analysis.hw_runs)
              recs
          in
          if outcomes <> [] then begin
            let of_kind kind =
              List.filter (fun (run : Analysis.hw_run) -> run.outcome = kind) outcomes
            in
            let avg runs =
              match runs with
              | [] -> 0.0
              | _ ->
                  List.fold_left (fun a (r : Analysis.hw_run) -> a +. r.seconds) 0.0 runs
                  /. float_of_int (List.length runs)
            in
            let yes = of_kind `Yes and no = of_kind `No and to_ = of_kind `Timeout in
            Buffer.add_string buf
              (Printf.sprintf "%-4d %5d (%.2f) %5d (%.2f) %9d\n" k (List.length yes)
                 (avg yes) (List.length no) (avg no) (List.length to_))
          end
        done
      end)
    Group.all;
  Buffer.contents buf

(* --- Figure 5 ---------------------------------------------------------------- *)

let figure5 ctx =
  let names, matrix = Stats.correlation_matrix ctx.records in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Figure 5: Correlation analysis (Pearson)\n";
  Buffer.add_string buf (Printf.sprintf "%-10s" "");
  Array.iter (fun n -> Buffer.add_string buf (Printf.sprintf "%9s" n)) names;
  Buffer.add_char buf '\n';
  Array.iteri
    (fun i n ->
      Buffer.add_string buf (Printf.sprintf "%-10s" n);
      Array.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf "%9.2f" v))
        matrix.(i);
      Buffer.add_char buf '\n')
    names;
  Buffer.contents buf

(* --- Tables 3 and 4 ----------------------------------------------------------- *)

let algorithms =
  [ Ghd.Portfolio.Global_bip_alg; Ghd.Portfolio.Local_bip_alg;
    Ghd.Portfolio.Bal_sep_alg ]

let table3 ctx =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 3: GHW algorithms on Check(GHD, hw-1), avg runtimes in s\n";
  Buffer.add_string buf (Printf.sprintf "%-9s %6s" "hw->ghw" "Total");
  List.iter
    (fun alg ->
      Buffer.add_string buf
        (Printf.sprintf " | %-22s" (Ghd.Portfolio.algorithm_name alg ^ " yes/no")))
    algorithms;
  Buffer.add_char buf '\n';
  List.iter
    (fun k ->
      let rows = List.filter (fun g -> g.Analysis.from_k = k) ctx.ghd in
      if rows <> [] then begin
        Buffer.add_string buf
          (Printf.sprintf "%d -> %-4d %6d" k (k - 1) (List.length rows));
        List.iter
          (fun alg ->
            let runs =
              List.filter_map
                (fun g ->
                  List.find_opt (fun (r : Analysis.ghd_run) -> r.algorithm = alg)
                    g.Analysis.runs)
                rows
            in
            let of_kind kind =
              List.filter (fun (r : Analysis.ghd_run) -> r.outcome = kind) runs
            in
            let avg rs =
              match rs with
              | [] -> 0.0
              | _ ->
                  List.fold_left (fun a (r : Analysis.ghd_run) -> a +. r.seconds) 0.0 rs
                  /. float_of_int (List.length rs)
            in
            let yes = of_kind `Yes and no = of_kind `No in
            Buffer.add_string buf
              (Printf.sprintf " | %4d (%5.2f) %4d (%5.2f)" (List.length yes)
                 (avg yes) (List.length no) (avg no)))
          algorithms;
        Buffer.add_char buf '\n'
      end)
    [ 3; 4; 5; 6 ];
  Buffer.contents buf

let table4 ctx =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Table 4: GHW of instances, combined algorithms (avg runtime in s)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-9s %12s %12s %9s\n" "hw->ghw" "yes (avg s)" "no (avg s)"
       "timeout");
  let improved = ref 0 and identical = ref 0 and open_ = ref 0 in
  List.iter
    (fun k ->
      let rows = List.filter (fun g -> g.Analysis.from_k = k) ctx.ghd in
      if rows <> [] then begin
        let of_kind kind =
          List.filter (fun g -> g.Analysis.combined = kind) rows
        in
        let avg rs =
          match rs with
          | [] -> 0.0
          | _ ->
              List.fold_left (fun a g -> a +. g.Analysis.combined_seconds) 0.0 rs
              /. float_of_int (List.length rs)
        in
        let yes = of_kind `Yes and no = of_kind `No and to_ = of_kind `Timeout in
        improved := !improved + List.length yes;
        identical := !identical + List.length no;
        open_ := !open_ + List.length to_;
        Buffer.add_string buf
          (Printf.sprintf "%d -> %-4d %5d (%.2f) %5d (%.2f) %9d\n" k (k - 1)
             (List.length yes) (avg yes) (List.length no) (avg no)
             (List.length to_))
      end)
    [ 3; 4; 5; 6 ];
  let solved = !improved + !identical in
  if solved > 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "Solved cases where hw = ghw: %d of %d (%.1f%%); width improved: %d\n"
         !identical solved
         (100.0 *. float_of_int !identical /. float_of_int solved)
         !improved);
  Buffer.contents buf

(* --- Tables 5 and 6 ------------------------------------------------------------ *)

let improvement_bucket hw width =
  let c = float_of_int hw -. width in
  if c >= 1.0 -. 1e-9 then `Ge1
  else if c >= 0.5 -. 1e-9 then `Half
  else if c >= 0.1 -. 1e-9 then `Tenth
  else `No

let frac_table title width_of ctx =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "%-4s %6s %9s %10s %6s %9s\n" "hw" ">=1" "[0.5,1)" "[0.1,0.5)"
       "no" "timeout");
  List.iter
    (fun hw ->
      let rows = List.filter (fun f -> f.Analysis.hw = hw) ctx.frac in
      if rows <> [] then begin
        let counts = Hashtbl.create 4 in
        let bump key =
          Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0)
        in
        List.iter
          (fun f ->
            match width_of f with
            | None -> bump `Timeout
            | Some w -> bump (improvement_bucket hw w))
          rows;
        let c key = Option.value (Hashtbl.find_opt counts key) ~default:0 in
        Buffer.add_string buf
          (Printf.sprintf "%-4d %6d %9d %10d %6d %9d\n" hw (c `Ge1) (c `Half)
             (c `Tenth) (c `No) (c `Timeout))
      end)
    [ 2; 3; 4; 5; 6 ];
  Buffer.contents buf

let table5 ctx =
  frac_table "Table 5: Instances solved with ImproveHD"
    (fun f -> Some f.Analysis.improve_width)
    ctx

let table6 ctx =
  frac_table "Table 6: Instances solved with FracImproveHD"
    (fun f -> f.Analysis.frac_improve_width)
    ctx

(* --- ablations ------------------------------------------------------------------ *)

let ablation ?(budget = fun () -> Kit.Deadline.of_seconds 1.0) ctx =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Ablation: design choices\n";
  (* DetKDecomp failure memoisation. *)
  let cyclic =
    List.filter_map
      (fun r ->
        match Analysis.hw_bound r with
        | Some k when k >= 2 -> Some (r.Analysis.instance, k)
        | _ -> None)
      ctx.records
  in
  let sample = List.filteri (fun i _ -> i mod 5 = 0) cyclic in
  let time_solve ~memoize (inst, k) =
    let t0 = Unix.gettimeofday () in
    ignore (Detk.solve ~deadline:(budget ()) ~memoize inst.Instance.hg ~k);
    Unix.gettimeofday () -. t0
  in
  let total memoize =
    List.fold_left (fun acc x -> acc +. time_solve ~memoize x) 0.0 sample
  in
  Buffer.add_string buf
    (Printf.sprintf
       "DetKDecomp on %d cyclic instances: memoization on %.3fs / off %.3fs\n"
       (List.length sample) (total true) (total false));
  (* GYO fast path for Check(HD,1) vs plain search. *)
  let acyclic_sample =
    List.filteri (fun i _ -> i mod 3 = 0)
      (List.filter
         (fun r -> Analysis.hw_bound r = Some 1)
         ctx.records)
  in
  let time_k1 gyo =
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (r : Analysis.record) ->
        ignore
          (Detk.solve ~deadline:(budget ()) ~gyo_fast_path:gyo
             r.Analysis.instance.Instance.hg ~k:1))
      acyclic_sample;
    Unix.gettimeofday () -. t0
  in
  Buffer.add_string buf
    (Printf.sprintf
       "Check(HD,1) on %d acyclic instances: GYO %.4fs / search %.4fs\n"
       (List.length acyclic_sample) (time_k1 true) (time_k1 false));
  (* BalSep subedge fallback. *)
  let verdict_counts use_subedges =
    let yes = ref 0 and no = ref 0 and timeout = ref 0 in
    List.iter
      (fun (inst, k) ->
        match
          (Ghd.Bal_sep.solve ~deadline:(budget ()) ~use_subedges inst.Instance.hg
             ~k:(Stdlib.max 1 (k - 1)))
            .Ghd.Bal_sep.outcome
        with
        | Detk.Decomposition _ -> incr yes
        | Detk.No_decomposition -> incr no
        | Detk.Timeout -> incr timeout)
      sample;
    (!yes, !no, !timeout)
  in
  let y1, n1, t1 = verdict_counts true in
  let y2, n2, t2 = verdict_counts false in
  Buffer.add_string buf
    (Printf.sprintf
       "BalSep at hw-1 with subedges: yes=%d no=%d timeout=%d; without: yes=%d no=%d timeout=%d\n"
       y1 n1 t1 y2 n2 t2);
  (* Width-preserving preprocessing (subsumed edges + twin vertices). *)
  let reducible, shrink_e, shrink_v =
    List.fold_left
      (fun (n, de, dv) (r : Analysis.record) ->
        let h = r.Analysis.instance.Instance.hg in
        let red = Hg.Reduce.reduce h in
        if Hg.Reduce.is_noop red then (n, de, dv)
        else
          ( n + 1,
            de + h.Hg.Hypergraph.n_edges - red.Hg.Reduce.reduced.Hg.Hypergraph.n_edges,
            dv + h.Hg.Hypergraph.n_vertices
            - red.Hg.Reduce.reduced.Hg.Hypergraph.n_vertices ))
      (0, 0, 0) ctx.records
  in
  Buffer.add_string buf
    (Printf.sprintf
       "Reduction preprocessing: %d of %d instances shrink (total -%d edges, -%d vertices)\n"
       reducible (List.length ctx.records) shrink_e shrink_v);
  Buffer.contents buf

(* --- fault-tolerant campaigns ---------------------------------------------- *)

module Journal = Journal
module J = Kit.Json

let ( let* ) = Option.bind

let field name conv j = Option.bind (J.member name j) conv

let verdict_to_string = function `Yes -> "yes" | `No -> "no" | `Timeout -> "timeout"

let verdict_of_string = function
  | "yes" -> Some `Yes
  | "no" -> Some `No
  | "timeout" -> Some `Timeout
  | _ -> None

let profile_to_json (p : Hg.Properties.profile) =
  J.Obj
    [
      ("vertices", J.Int p.Hg.Properties.vertices);
      ("edges", J.Int p.edges);
      ("arity", J.Int p.arity);
      ("degree", J.Int p.degree);
      ("bip", J.Int p.bip);
      ("bmip3", J.Int p.bmip3);
      ("bmip4", J.Int p.bmip4);
      ("vc_dim", match p.vc_dim with Some v -> J.Int v | None -> J.Null);
    ]

let profile_of_json j : Hg.Properties.profile option =
  let* vertices = field "vertices" J.to_int j in
  let* edges = field "edges" J.to_int j in
  let* arity = field "arity" J.to_int j in
  let* degree = field "degree" J.to_int j in
  let* bip = field "bip" J.to_int j in
  let* bmip3 = field "bmip3" J.to_int j in
  let* bmip4 = field "bmip4" J.to_int j in
  let vc_dim = field "vc_dim" J.to_int j in
  Some { Hg.Properties.vertices; edges; arity; degree; bip; bmip3; bmip4; vc_dim }

let record_to_json (r : Analysis.record) =
  let h = r.Analysis.instance.Instance.hg in
  J.Obj
    [
      ("profile", profile_to_json r.Analysis.profile);
      ( "hw_runs",
        J.List
          (List.map
             (fun (x : Analysis.hw_run) ->
               J.Obj
                 [
                   ("k", J.Int x.k);
                   ("v", J.String (verdict_to_string x.outcome));
                   ("s", J.Float x.seconds);
                 ])
             r.Analysis.hw_runs) );
      ( "hw",
        let status, k =
          match r.Analysis.hw with
          | Analysis.Exact k -> ("exact", k)
          | Analysis.Upper k -> ("upper", k)
          | Analysis.Open_above k -> ("open_above", k)
        in
        J.Obj [ ("status", J.String status); ("k", J.Int k) ] );
      ( "hd",
        match r.Analysis.hd with
        | Some d -> J.String (Decomp_io.to_text h d)
        | None -> J.Null );
    ]

(* [stats] is deliberately not journaled: per-instance search counters are
   empty unless metrics were enabled, and a resumed instance did no new
   search — so a rebuilt record carries [Kit.Metrics.empty]. *)
let record_of_json (inst : Instance.t) j : Analysis.record option =
  let* profile = field "profile" profile_of_json j in
  let* runs = field "hw_runs" J.to_list j in
  let* hw_runs =
    List.fold_right
      (fun rj acc ->
        let* acc = acc in
        let* k = field "k" J.to_int rj in
        let* v = field "v" J.string_value rj in
        let* outcome = verdict_of_string v in
        let* seconds = field "s" J.to_float rj in
        Some ({ Analysis.k; outcome; seconds } :: acc))
      runs (Some [])
  in
  let* hwj = J.member "hw" j in
  let* status = field "status" J.string_value hwj in
  let* k = field "k" J.to_int hwj in
  let* hw =
    match status with
    | "exact" -> Some (Analysis.Exact k)
    | "upper" -> Some (Analysis.Upper k)
    | "open_above" -> Some (Analysis.Open_above k)
    | _ -> None
  in
  let* hd =
    match J.member "hd" j with
    | Some J.Null | None -> Some None
    | Some v -> (
        let* text = J.string_value v in
        match Decomp_io.of_text inst.Instance.hg text with
        | Ok d -> Some (Some d)
        | Error _ -> None)
  in
  Some
    {
      Analysis.instance = inst;
      profile;
      hw_runs;
      hw;
      hd;
      stats = Kit.Metrics.empty;
    }

let task_to_json (t : Analysis.task) =
  let base =
    [
      ("instance", J.String t.Analysis.task_instance.Instance.name);
      ("attempts", J.Int t.Analysis.attempts);
      ("outcome", J.String (Kit.Outcome.label t.Analysis.result));
    ]
  in
  let detail =
    match Kit.Outcome.detail t.Analysis.result with
    | "" -> []
    | d -> [ ("detail", J.String d) ]
  in
  let record =
    match t.Analysis.result with
    | Kit.Outcome.Ok r -> [ ("record", record_to_json r) ]
    | _ -> []
  in
  J.Obj (base @ detail @ record)

let task_of_json ~find j : Analysis.task option =
  let* name = field "instance" J.string_value j in
  let* inst = find name in
  let attempts = Option.value (field "attempts" J.to_int j) ~default:1 in
  let* label = field "outcome" J.string_value j in
  let* result =
    if label = "ok" then
      let* rj = J.member "record" j in
      let* r = record_of_json inst rj in
      Some (Kit.Outcome.Ok r)
    else
      let detail = Option.value (field "detail" J.string_value j) ~default:"" in
      Kit.Outcome.of_label label ~detail
  in
  Some { Analysis.task_instance = inst; attempts; result }

let journal_header ~seed ~scale ~max_k =
  J.Obj
    [
      ("format", J.String "hyperbench-journal");
      ("version", J.Int 1);
      ("seed", J.Int seed);
      ("scale", J.Float scale);
      ("max_k", J.Int max_k);
    ]

(* Resuming under different generator parameters would silently mix two
   incomparable campaigns, so every identity field must agree. *)
let header_compatible expected actual =
  List.for_all
    (fun n -> J.member n expected = J.member n actual)
    [ "format"; "version"; "seed"; "scale"; "max_k" ]

type campaign = {
  context : context;
  tasks : Analysis.task list;
  resumed : int;
  journal_corrupt : int;
}

let escalating_budget ?fuel seconds =
  let at attempt =
    match fuel with
    | Some f -> Kit.Deadline.of_fuel (f * (1 lsl attempt))
    | None -> Kit.Deadline.of_seconds (seconds *. float_of_int (1 lsl attempt))
  in
  ((fun () -> at 0), fun ~attempt () -> at attempt)

let prepare_campaign ?(seed = 2019) ?(scale = 1.0)
    ?(budget = fun () -> Kit.Deadline.of_seconds 1.0) ?budget_for ?retries
    ?mem_mb ?(max_k = 8) ?jobs ?isolate ?wall ?shard ?cache ?journal
    ?(resume = false) () =
  (match shard with
  | Some (s, n) when n < 1 || s < 0 || s >= n ->
      invalid_arg
        (Printf.sprintf "prepare_campaign: bad shard %d/%d (need 0 <= s < n)" s
           n)
  | Some _ | None -> ());
  let instances = Repository.build ~seed ~scale () in
  let find name = Repository.find instances name in
  let header = journal_header ~seed ~scale ~max_k in
  let resume_data =
    match journal with
    | Some path when resume && Sys.file_exists path -> (
        match Journal.read ~path with
        | Error m -> Error (Printf.sprintf "%s: %s" path m)
        | Ok { Journal.header = None; entries = []; corrupt = 0 } -> Ok ([], 0)
        | Ok { Journal.header = None; _ } ->
            (* A file with content but no parseable line 1 lost its run
               parameters; resuming against it would mix campaigns. *)
            Error
              (Printf.sprintf
                 "%s: corrupt journal header (line 1 is not valid JSON); \
                  refusing to resume"
                 path)
        | Ok { Journal.header = Some h; entries; corrupt }
          when header_compatible header h ->
            (* An entry that no longer decodes (hand-edited, or torn in a
               way that still parses as JSON) is dropped and its instance
               simply reruns. *)
            let tasks, bad =
              List.fold_left
                (fun (ts, bad) e ->
                  match task_of_json ~find e with
                  | Some t -> (t :: ts, bad)
                  | None -> (ts, bad + 1))
                ([], 0) entries
            in
            Ok (List.rev tasks, corrupt + bad)
        | Ok _ ->
            Error
              (Printf.sprintf
                 "%s: journal belongs to a different campaign \
                  (seed/scale/max_k mismatch)"
                 path))
    | _ -> Ok ([], 0)
  in
  match resume_data with
  | Error _ as e -> e
  | Ok (resumed_tasks, journal_corrupt) ->
      let done_names = Hashtbl.create 64 in
      List.iter
        (fun (t : Analysis.task) ->
          Hashtbl.replace done_names t.Analysis.task_instance.Instance.name ())
        resumed_tasks;
      (* The shard filter is by instance *index* in the full repository
         list — deterministic, so shard s of n always names the same
         instances (and matches Repository.pack's split) no matter which
         machine runs it. The journal header carries no shard field:
         shard journals of one campaign are mutually header-compatible
         and merge with merge_journals. *)
      let in_shard =
        match shard with
        | None -> fun _ -> true
        | Some (s, n) -> fun idx -> idx mod n = s
      in
      let todo =
        List.filteri
          (fun idx (i : Instance.t) ->
            in_shard idx && not (Hashtbl.mem done_names i.Instance.name))
          instances
      in
      (* (Re)write the journal: fresh runs get header-only; resumes get the
         surviving entries back, which also truncates any torn tail. *)
      let writer =
        Option.map
          (fun path ->
            Journal.start ~path ~header
              ~entries:(List.map task_to_json resumed_tasks))
          journal
      in
      let on_done =
        Option.map (fun w t -> Journal.append w (task_to_json t)) writer
      in
      (* With isolation on, this pass forks workers — it runs before the
         ghd/fractional passes spawn any domains, keeping fork safe. *)
      let tasks_run =
        Analysis.analyze_outcomes ~budget ?budget_for ?retries ?mem_mb ~max_k
          ?jobs ?isolate ?wall ?cache ?on_done todo
      in
      Option.iter Journal.close writer;
      (* Stitch resumed and fresh tasks back into instance order so every
         downstream table is independent of what was resumed. *)
      let by_name = Hashtbl.create 64 in
      List.iter
        (fun (t : Analysis.task) ->
          Hashtbl.replace by_name t.Analysis.task_instance.Instance.name t)
        (resumed_tasks @ tasks_run);
      let tasks =
        List.filter_map
          (fun (i : Instance.t) -> Hashtbl.find_opt by_name i.Instance.name)
          instances
      in
      let records =
        List.filter_map (fun t -> Kit.Outcome.get t.Analysis.result) tasks
      in
      let ghd = Analysis.ghd_comparison ~budget ?jobs records in
      let frac = Analysis.fractional ~budget ?jobs records in
      Ok
        {
          context =
            { instances; records; ghd; frac };
          tasks;
          resumed = List.length resumed_tasks;
          journal_corrupt;
        }

(* Merge shard journals (or any interrupted fragments of one campaign)
   into a single journal equivalent to the unsharded run's. Headers must
   all be present and mutually compatible — the same refusal rule as
   resume. Entries are deduplicated by instance name, first occurrence
   wins, and reordered to repository instance order (seed and scale come
   from the header), so the merged file is byte-deterministic in its
   inputs regardless of shard interleaving. *)
let merge_journals ~into paths =
  match paths with
  | [] -> Error "merge_journals: no input journals"
  | first_path :: _ -> (
      let rec read_all acc = function
        | [] -> Ok (List.rev acc)
        | path :: rest -> (
            match Journal.read ~path with
            | Error m -> Error (Printf.sprintf "%s: %s" path m)
            | Ok { Journal.header = None; _ } ->
                Error
                  (Printf.sprintf
                     "%s: corrupt or missing journal header (line 1)" path)
            | Ok { Journal.header = Some h; entries; corrupt } ->
                read_all ((path, h, entries, corrupt) :: acc) rest)
      in
      match read_all [] paths with
      | Error _ as e -> e
      | Ok parts -> (
          let _, first_header, _, _ = List.hd parts in
          match
            List.find_opt
              (fun (_, h, _, _) -> not (header_compatible first_header h))
              parts
          with
          | Some (path, _, _, _) ->
              Error
                (Printf.sprintf
                   "%s: journal belongs to a different campaign than %s \
                    (seed/scale/max_k mismatch)"
                   path first_path)
          | None ->
              let seen = Hashtbl.create 256 in
              let merged = ref [] in
              let corrupt = ref 0 in
              List.iter
                (fun (_, _, entries, c) ->
                  corrupt := !corrupt + c;
                  List.iter
                    (fun e ->
                      match field "instance" J.string_value e with
                      | None -> incr corrupt
                      | Some name ->
                          if not (Hashtbl.mem seen name) then begin
                            Hashtbl.replace seen name ();
                            merged := (name, e) :: !merged
                          end)
                    entries)
                parts;
              (* Reorder to instance order when the header still decodes
                 to generator parameters; entries for unknown names keep
                 their first-seen order at the tail. *)
              let order =
                let* seed = field "seed" J.to_int first_header in
                let* scale = field "scale" J.to_float first_header in
                Some (Repository.build ~seed ~scale ())
              in
              let merged = List.rev !merged in
              let merged =
                match order with
                | None -> List.map snd merged
                | Some instances ->
                    let tbl = Hashtbl.create 256 in
                    List.iter (fun (n, e) -> Hashtbl.replace tbl n e) merged;
                    let in_order =
                      List.filter_map
                        (fun (i : Instance.t) ->
                          match Hashtbl.find_opt tbl i.Instance.name with
                          | Some e ->
                              Hashtbl.remove tbl i.Instance.name;
                              Some e
                          | None -> None)
                        instances
                    in
                    let stragglers =
                      List.filter_map
                        (fun (n, e) ->
                          if Hashtbl.mem tbl n then Some e else None)
                        merged
                    in
                    in_order @ stragglers
              in
              Journal.close
                (Journal.start ~path:into ~header:first_header ~entries:merged);
              Ok (List.length merged, !corrupt)))

let campaign_summary c =
  let buf = Buffer.create 256 in
  let count label =
    List.length
      (List.filter
         (fun (t : Analysis.task) -> Kit.Outcome.label t.Analysis.result = label)
         c.tasks)
  in
  let retried =
    List.length
      (List.filter (fun (t : Analysis.task) -> t.Analysis.attempts > 1) c.tasks)
  in
  Buffer.add_string buf "Campaign summary\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  instances %d | ok %d | timeout %d | out_of_memory %d | \
        stack_overflow %d | crash %d\n"
       (List.length c.tasks) (count "ok") (count "timeout")
       (count "out_of_memory") (count "stack_overflow") (count "crash"));
  Buffer.add_string buf
    (Printf.sprintf
       "  resumed from journal %d | retried %d | corrupt journal lines %d\n"
       c.resumed retried c.journal_corrupt);
  List.iter
    (fun (t : Analysis.task) ->
      if not (Kit.Outcome.is_ok t.Analysis.result) then begin
        let first_line s =
          match String.index_opt s '\n' with
          | Some i -> String.sub s 0 i
          | None -> s
        in
        Buffer.add_string buf
          (Printf.sprintf "  %s: %s after %d attempt(s)%s\n"
             t.Analysis.task_instance.Instance.name
             (Kit.Outcome.label t.Analysis.result)
             t.Analysis.attempts
             (match Kit.Outcome.detail t.Analysis.result with
             | "" -> ""
             | d -> " - " ^ first_line d))
      end)
    c.tasks;
  Buffer.contents buf
