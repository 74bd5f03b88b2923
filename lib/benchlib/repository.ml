module Rng = Kit.Rng

let scaled scale n = Stdlib.max 1 (int_of_float (ceil (scale *. float_of_int n)))

let build ?(seed = 2019) ?(scale = 1.0) () =
  let rng = Rng.create seed in
  let out = ref [] in
  let add group source name hg =
    if hg.Hg.Hypergraph.n_edges > 0 then
      out := Instance.make ~name ~group ~source hg :: !out
  in
  let series group source n f =
    for i = 1 to n do
      add group source (Printf.sprintf "%s-%03d" source i) (f i)
    done
  in
  (* --- CQ Application ---------------------------------------------------- *)
  series Group.CQ_application "sparql" (scaled scale 10) (fun _ ->
      Gen.Sparql_gen.random_shape rng);
  series Group.CQ_application "wikidata" (scaled scale 30) (fun _ ->
      Gen.Sparql_gen.random_shape rng);
  series Group.CQ_application "lubm" (scaled scale 5) (fun _ -> Gen.Workloads.lubm rng);
  series Group.CQ_application "ibench" (scaled scale 6) (fun _ -> Gen.Workloads.ibench rng);
  series Group.CQ_application "doctors" (scaled scale 5) (fun _ ->
      Gen.Workloads.doctors rng);
  series Group.CQ_application "deep" (scaled scale 6) (fun _ -> Gen.Workloads.deep rng);
  series Group.CQ_application "sqlshare" (scaled scale 12) (fun _ ->
      Gen.Workloads.sqlshare rng);
  (* SQL workloads: fixed query sets, scale-independent. *)
  List.iter
    (fun (source, schema, queries) ->
      List.iter
        (fun (name, hg) -> add Group.CQ_application source (source ^ "-" ^ name) hg)
        (Gen.Workloads.convert_workload schema queries))
    [
      ("tpch", Gen.Workloads.tpch_schema, Gen.Workloads.tpch_queries);
      ("tpcds", Gen.Workloads.tpcds_schema, Gen.Workloads.tpcds_queries);
      ("job", Gen.Workloads.job_schema, Gen.Workloads.job_queries);
    ];
  (* --- CQ Random ---------------------------------------------------------- *)
  series Group.CQ_random "cq-rand" (scaled scale 40) (fun _ ->
      let n_vertices = Rng.int_in rng 5 50 in
      let n_edges = Rng.int_in rng 3 25 in
      let max_arity = Rng.int_in rng 3 12 in
      Gen.Random_cq.random rng ~n_vertices ~n_edges ~max_arity);
  (* --- CSP Application ----------------------------------------------------- *)
  series Group.CSP_application "scheduling" (scaled scale 10) (fun _ ->
      Gen.Structured.scheduling rng ~jobs:(Rng.int_in rng 3 7)
        ~machines:(Rng.int_in rng 3 6));
  series Group.CSP_application "coloring" (scaled scale 10) (fun _ ->
      Gen.Structured.coloring rng ~n_vertices:(Rng.int_in rng 8 25)
        ~avg_degree:(2.0 +. Rng.float rng *. 2.0));
  series Group.CSP_application "config" (scaled scale 10) (fun _ ->
      Gen.Structured.configuration rng ~n_clusters:(Rng.int_in rng 3 8)
        ~cluster_size:(Rng.int_in rng 3 8) ~backbone:(Rng.int_in rng 2 5));
  series Group.CSP_application "circuit" (scaled scale 10) (fun _ ->
      Gen.Structured.circuit rng ~n_gates:(Rng.int_in rng 10 40)
        ~n_inputs:(Rng.int_in rng 3 8));
  (* --- CSP Random ---------------------------------------------------------- *)
  series Group.CSP_random "csp-rand" (scaled scale 25) (fun _ ->
      Gen.Random_csp.random rng
        ~n_variables:(Rng.int_in rng 12 35)
        ~n_constraints:(Rng.int_in rng 18 55)
        ~max_arity:(Rng.int_in rng 2 4));
  (* --- CSP Other ----------------------------------------------------------- *)
  series Group.CSP_other "grid" (scaled scale 5) (fun i ->
      let side = 2 + (i mod 4) in
      Gen.Structured.grid ~rows:side ~cols:(side + (i mod 2)));
  series Group.CSP_other "iscas" (scaled scale 4) (fun _ ->
      Gen.Structured.circuit rng ~n_gates:(Rng.int_in rng 40 80)
        ~n_inputs:(Rng.int_in rng 5 12));
  series Group.CSP_other "daimler" (scaled scale 3) (fun _ ->
      Gen.Structured.configuration rng ~n_clusters:(Rng.int_in rng 8 14)
        ~cluster_size:(Rng.int_in rng 5 12) ~backbone:(Rng.int_in rng 3 7));
  List.rev !out

let by_group instances =
  List.map
    (fun g -> (g, List.filter (fun i -> i.Instance.group = g) instances))
    Group.all

let sources instances =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun i ->
      let s = i.Instance.source in
      if not (Hashtbl.mem tbl s) then begin
        Hashtbl.replace tbl s ();
        order := s :: !order
      end)
    instances;
  List.rev_map
    (fun s -> (s, List.filter (fun i -> i.Instance.source = s) instances))
    !order

let find instances name =
  List.find_opt (fun i -> i.Instance.name = name) instances

(* Sanitising alone is ambiguous: "a/b" and "a_b" would map to the same
   file and silently overwrite each other. The name's own 64-bit digest
   is appended, so distinct names always get distinct files while the
   sanitised prefix keeps directories human-readable. *)
let hg_filename name =
  let sanitized =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
        | _ -> '_')
      name
  in
  let sanitized =
    if String.length sanitized > 80 then String.sub sanitized 0 80
    else sanitized
  in
  Printf.sprintf "%s-%s.hg" sanitized
    (String.sub Kit.Hash64.(to_hex (add_string init name)) 0 8)

(* index.tsv is tab-separated with one record per line, so a name or
   source containing a tab or newline would tear the index; duplicate
   names would make one of the two instances unaddressable. Both are
   caller bugs — refuse loudly rather than persist garbage. *)
let check_instances instances =
  let check_field what v =
    String.iter
      (fun c ->
        if c = '\t' || c = '\n' || c = '\r' then
          invalid_arg
            (Printf.sprintf "Repository.save: %s %S contains tab/newline"
               what v))
      v
  in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun i ->
      check_field "instance name" i.Instance.name;
      check_field "source" i.Instance.source;
      if Hashtbl.mem seen i.Instance.name then
        invalid_arg
          (Printf.sprintf "Repository.save: duplicate instance name %S"
             i.Instance.name);
      Hashtbl.replace seen i.Instance.name ())
    instances

let save ~dir instances =
  check_instances instances;
  Fsio.mkdir_p dir;
  List.iter
    (fun i ->
      Fsio.write_atomic
        (Filename.concat dir (hg_filename i.Instance.name))
        (Hg.Hypergraph.to_string i.Instance.hg))
    instances;
  (* The index is written last and atomically: a crash mid-save leaves
     the previous index (or none) in place, never one that references
     half-written files. *)
  let buf = Buffer.create 4096 in
  List.iter
    (fun i ->
      Printf.bprintf buf "%s\t%s\t%s\n" i.Instance.name
        (Group.id i.Instance.group)
        i.Instance.source)
    instances;
  Fsio.write_atomic (Filename.concat dir "index.tsv") (Buffer.contents buf)

type loaded = {
  instances : Instance.t list;
  skipped : (string * string) list;
}

let m_load_skipped = Kit.Metrics.counter "repository.load_skipped"

(* Fault site "hypergraph.parse": the harness can truncate the text, as
   a shrinking or torn file would. *)
let read_hg path =
  match Fsio.read_file path with
  | Error _ as e -> e
  | Ok s ->
      let s =
        match Kit.Fault.cut "hypergraph.parse" with
        | Some keep when keep < String.length s -> String.sub s 0 keep
        | Some _ | None -> s
      in
      Result.map_error
        (fun ds -> Kit.Diag.to_message ~file:path ~source:s ds)
        (Hg.Hypergraph.parse_report s)

(* A corrupt entry — torn index line, unknown group, unparseable or
   truncated .hg file — must never abort a campaign that the other few
   thousand instances could still serve. Each one becomes a warning and a
   metrics tick; only a missing/unreadable index is fatal. *)
let load ~dir =
  let index = Filename.concat dir "index.tsv" in
  if not (Sys.file_exists index) then
    Error (Printf.sprintf "no index.tsv in %s" dir)
  else begin
    match open_in index with
    | exception Sys_error m -> Error m
    | ic ->
    let rows =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec lines acc =
            match input_line ic with
            | line -> lines (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          lines [])
    in
    let skip acc label msg rest build =
      Kit.Metrics.incr m_load_skipped;
      build ((label, msg) :: acc) rest
    in
    let rec build instances skipped = function
      | [] -> { instances = List.rev instances; skipped = List.rev skipped }
      | line :: rest -> (
          match String.split_on_char '\t' line with
          | [ name; group_id; source ] -> (
              match Group.of_id group_id with
              | None ->
                  skip skipped name
                    (Printf.sprintf "unknown group %s" group_id)
                    rest (build instances)
              | Some group -> (
                  match read_hg (Filename.concat dir (hg_filename name)) with
                  | Error m -> skip skipped name m rest (build instances)
                  | Ok hg ->
                      build
                        (Instance.make ~name ~group ~source hg :: instances)
                        skipped rest))
          | _ ->
              skip skipped "index.tsv"
                (Printf.sprintf "bad index line: %s" line)
                rest (build instances))
    in
    Ok (build [] [] rows)
  end

(* --- packed binary repository -------------------------------------------- *)

module V = Kit.Varint

let pack_magic = "HBPK"
let pack_version = 1
let shard_file s n = Printf.sprintf "shard-%03d-of-%03d.hbr" s n

let pack ~dir ?(shards = 1) instances =
  if shards < 1 then invalid_arg "Repository.pack: shards must be >= 1";
  check_instances instances;
  Fsio.mkdir_p dir;
  let entry_bufs = Array.init shards (fun _ -> Buffer.create (1 lsl 12)) in
  let counts = Array.make shards 0 in
  let entry = Buffer.create (1 lsl 10) in
  List.iteri
    (fun idx i ->
      (* Deterministic by instance index, matching campaign sharding, so
         shard s of the pack is exactly the input of campaign shard s/n. *)
      let s = idx mod shards in
      Buffer.clear entry;
      V.write_string entry i.Instance.name;
      V.write_string entry (Group.id i.Instance.group);
      V.write_string entry i.Instance.source;
      V.write_string entry (Hg.Hypergraph.fingerprint i.Instance.hg);
      (* The graph blob is itself length-prefixed so a reader can verify
         or skip an entry without decoding it. *)
      V.write_string entry (Hg.Binary.to_string i.Instance.hg);
      let buf = entry_bufs.(s) in
      Buffer.add_buffer buf entry;
      (* The graph's own fingerprint does not cover the name/group/source
         fields, so each entry ends with a digest of all its bytes —
         verify catches a flipped byte anywhere, not just in the blob. *)
      V.write_string buf
        Kit.Hash64.(to_hex (add_string init (Buffer.contents entry)));
      counts.(s) <- counts.(s) + 1)
    instances;
  Array.iteri
    (fun s entries ->
      let buf = Buffer.create (Buffer.length entries + 16) in
      Buffer.add_string buf pack_magic;
      V.write buf pack_version;
      V.write buf counts.(s);
      Buffer.add_buffer buf entries;
      Fsio.write_atomic
        (Filename.concat dir (shard_file s shards))
        (Buffer.contents buf))
    entry_bufs

(* Same tolerance contract as [load]: one corrupt entry (bad blob, stale
   fingerprint, unknown group) is skipped and reported, the rest of its
   shard still loads; corruption in the framing itself abandons only the
   remainder of that one shard. *)
let load_pack ~dir =
  match Sys.readdir dir with
  | exception Sys_error m -> Error m
  | files ->
      let shards =
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".hbr")
        |> List.sort compare
      in
      if shards = [] then Error (Printf.sprintf "no .hbr shards in %s" dir)
      else begin
        let skipped = ref [] in
        let skip label msg =
          Kit.Metrics.incr m_load_skipped;
          skipped := (label, msg) :: !skipped
        in
        let per_shard =
          List.map
            (fun file ->
              match Fsio.read_file (Filename.concat dir file) with
              | Error m ->
                  skip file m;
                  []
              | Ok data ->
                  let entries = ref [] in
                  (try
                     let len = String.length data in
                     if len < 4 || String.sub data 0 4 <> pack_magic then
                       failwith "bad magic";
                     let pos = ref 4 in
                     let version = V.read data pos in
                     if version <> pack_version then
                       failwith
                         (Printf.sprintf "unsupported pack version %d" version);
                     let count = V.read data pos in
                     for _ = 1 to count do
                       let start = !pos in
                       let name = V.read_string data pos in
                       let group_id = V.read_string data pos in
                       let source = V.read_string data pos in
                       let fp = V.read_string data pos in
                       let blob = V.read_string data pos in
                       let digest =
                         Kit.Hash64.(
                           to_hex
                             (add_string init
                                (String.sub data start (!pos - start))))
                       in
                       let checksum = V.read_string data pos in
                       if checksum <> digest then
                         skip name "entry checksum mismatch"
                       else
                         match Group.of_id group_id with
                         | None ->
                             skip name
                               (Printf.sprintf "unknown group %s" group_id)
                         | Some group -> (
                             match Hg.Binary.of_string_report blob with
                             | Error d -> skip name d.Kit.Diag.message
                             | Ok hg ->
                                 if Hg.Hypergraph.fingerprint hg <> fp then
                                   skip name "fingerprint mismatch"
                                 else
                                   entries :=
                                     Instance.make ~name ~group ~source hg
                                     :: !entries)
                     done
                   with
                  | V.Corrupt m -> skip file ("torn shard: " ^ m)
                  | Failure m -> skip file m);
                  List.rev !entries)
            shards
        in
        (* Entry k of shard s was instance k*n + s: a round-robin merge
           across shards restores the original repository order. *)
        let queues = List.map ref per_shard in
        let out = ref [] in
        let progress = ref true in
        while !progress do
          progress := false;
          List.iter
            (fun q ->
              match !q with
              | [] -> ()
              | x :: rest ->
                  q := rest;
                  out := x :: !out;
                  progress := true)
            queues
        done;
        Ok { instances = List.rev !out; skipped = List.rev !skipped }
      end
