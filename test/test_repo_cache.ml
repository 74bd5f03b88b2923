(* The content-addressed persistence layer: canonical fingerprints, the
   binary repository codec, the result cache, and the four persistence
   bugfixes (filename collisions, atomic/validated saves, the
   journal-header rule, quoted-name round-trips).

   The heart is a seeded property sweep over ~500 generated hypergraphs
   with adversarial names; the pinned-fingerprint case additionally
   freezes the digest across versions (cache entries and packed
   repositories outlive the binary that wrote them). *)

module H = Hg.Hypergraph
module B = Benchlib
module Rng = Kit.Rng

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------- seeded instance generator ---------- *)

(* Vertex-name pool mixing identifiers with names that need quoting in
   the text format: spaces, quotes, backslashes, parens, commas, the
   full stop that terminates the format, leading digits, non-ASCII
   bytes. *)
let name_pool =
  [|
    "x";
    "y0";
    "long_identifier_name";
    "A.b-c";
    "has space";
    "quo\"te";
    "back\\slash";
    "par(en,comma)";
    "dot.";
    "0starts_with_digit";
    "caf\xc3\xa9";
    "tab\tand\nnewline";
  |]

let gen_hg rng =
  let n_edges = 1 + Rng.int rng 7 in
  let edges =
    List.init n_edges (fun ei ->
        let arity = 1 + Rng.int rng 4 in
        let vs =
          List.init arity (fun _ -> Rng.pick rng name_pool)
          |> List.sort_uniq compare
        in
        (Printf.sprintf "e%d" ei, vs))
  in
  H.of_named_edges edges

(* Rebuild [h] with edges in a different order and vertex ids renumbered
   (interning order follows the permuted edge list), preserving the
   name-level structure. *)
let permuted rng h =
  let edges =
    Array.init h.H.n_edges (fun e ->
        let vs =
          Kit.Bitset.to_list (H.edge h e)
          |> List.map (H.vertex_name h)
          |> Array.of_list
        in
        Rng.shuffle rng vs;
        (Printf.sprintf "p%d" e, Array.to_list vs))
  in
  Rng.shuffle rng edges;
  H.of_named_edges (Array.to_list edges)

let n_cases = 500

(* ---------- the property sweep ---------- *)

let prop_fingerprint_permutation_invariant () =
  let rng = Rng.create 42 in
  for _ = 1 to n_cases do
    let h = gen_hg rng in
    let h' = permuted rng h in
    Alcotest.(check bool) "permutation preserves structure" true
      (H.equal_structure h h');
    Alcotest.(check string) "permutation preserves fingerprint"
      (H.fingerprint h) (H.fingerprint h')
  done

let prop_fingerprint_distinct () =
  (* Bucket 500 generated graphs by fingerprint: within a bucket every
     pair must be structurally equal, i.e. a shared fingerprint is never
     a collision between dedup_edges-distinct graphs. *)
  let rng = Rng.create 43 in
  let buckets : (string, H.t list) Hashtbl.t = Hashtbl.create 256 in
  for _ = 1 to n_cases do
    let h = H.dedup_edges (gen_hg rng) in
    let fp = H.fingerprint h in
    Hashtbl.replace buckets fp (h :: (try Hashtbl.find buckets fp with Not_found -> []))
  done;
  Alcotest.(check bool) "generator produced distinct graphs" true
    (Hashtbl.length buckets > 50);
  Hashtbl.iter
    (fun _ hs ->
      match hs with
      | [] | [ _ ] -> ()
      | h :: rest ->
          List.iter
            (fun h' ->
              Alcotest.(check bool) "same fingerprint => same structure" true
                (H.equal_structure h h'))
            rest)
    buckets

let prop_text_roundtrip () =
  let rng = Rng.create 44 in
  for _ = 1 to n_cases do
    let h = gen_hg rng in
    match H.parse_report (H.to_string h) with
    | Error ds ->
        Alcotest.failf "text round-trip failed to parse: %s"
          (Kit.Diag.to_message ~source:(H.to_string h) ds)
    | Ok h' ->
        Alcotest.(check bool) "text round-trip preserves structure" true
          (H.equal_structure h h');
        Alcotest.(check string) "text round-trip preserves fingerprint"
          (H.fingerprint h) (H.fingerprint h')
  done

let prop_binary_roundtrip () =
  let rng = Rng.create 45 in
  for _ = 1 to n_cases do
    let h = gen_hg rng in
    match Hg.Binary.of_string_report (Hg.Binary.to_string h) with
    | Error d -> Alcotest.failf "binary round-trip failed: %s" d.Kit.Diag.message
    | Ok h' ->
        (* Binary is exact: ids and names survive bit-for-bit. *)
        Alcotest.(check (array string)) "vertex names" h.H.vertex_names
          h'.H.vertex_names;
        Alcotest.(check (array string)) "edge names" h.H.edge_names
          h'.H.edge_names;
        Alcotest.(check int) "n_edges" h.H.n_edges h'.H.n_edges;
        for e = 0 to h.H.n_edges - 1 do
          Alcotest.(check bool) "edge members" true
            (Kit.Bitset.equal (H.edge h e) (H.edge h' e))
        done;
        Alcotest.(check string) "fingerprint" (H.fingerprint h)
          (H.fingerprint h')
  done

let prop_text_binary_text () =
  (* The acceptance phrasing: text -> binary -> text preserves
     equal_structure (text cannot promise exact ids, binary can). *)
  let rng = Rng.create 46 in
  for _ = 1 to n_cases do
    let h = gen_hg rng in
    match Hg.Binary.of_string_report (Hg.Binary.to_string h) with
    | Error d -> Alcotest.failf "binary decode failed: %s" d.Kit.Diag.message
    | Ok hb -> (
        match H.parse_report (H.to_string hb) with
        | Error ds ->
            Alcotest.failf "text re-parse failed: %s"
              (Kit.Diag.to_message ~source:(H.to_string hb) ds)
        | Ok ht ->
            Alcotest.(check bool) "text->binary->text structure" true
              (H.equal_structure h ht))
  done

(* The fingerprint is a persistent cache/pack key: its value for a fixed
   graph is part of the format and must never drift across versions. *)
let fingerprint_pinned () =
  let h = H.of_named_edges [ ("e1", [ "x"; "y" ]); ("e2", [ "y"; "z" ]) ] in
  Alcotest.(check string) "pinned digest" "0c53e013d6f5e933" (H.fingerprint h);
  Alcotest.(check int) "16 hex chars" 16 (String.length (H.fingerprint h))

(* ---------- result cache ---------- *)

let tmpdir () =
  let d = Filename.temp_file "hbtest" "" in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.is_directory path then (
    Sys.readdir path |> Array.iter (fun f -> rm_rf (Filename.concat path f));
    Sys.rmdir path)
  else Sys.remove path

let fuel () = Kit.Deadline.of_fuel 200_000

let cache_store_hit_roundtrip () =
  let dir = tmpdir () in
  let cache = B.Result_cache.create ~dir in
  let h = gen_hg (Rng.create 47) in
  (* Solve a few levels for real, store the definitive verdicts, then
     demand that every hit replays to the same (validated) verdict. *)
  for k = 1 to 3 do
    (match Detk.solve ~deadline:(fuel ()) h ~k with
    | Detk.Decomposition d ->
        B.Result_cache.store cache h ~meth:"detk" ~k (B.Result_cache.Yes d)
    | Detk.No_decomposition ->
        B.Result_cache.store cache h ~meth:"detk" ~k B.Result_cache.No
    | Detk.Timeout -> Alcotest.fail "unexpected timeout on tiny instance");
    match
      (Detk.solve ~deadline:(fuel ()) h ~k, B.Result_cache.find cache h ~meth:"detk" ~k)
    with
    | Detk.Decomposition _, Some (B.Result_cache.Yes d) ->
        Alcotest.(check bool) "replayed witness validates" true
          (Decomp.check_hd h d = []);
        Alcotest.(check bool) "replayed width within k" true
          (Decomp.width d <= k)
    | Detk.No_decomposition, Some B.Result_cache.No -> ()
    | _, None -> Alcotest.fail "stored verdict did not hit"
    | _ -> Alcotest.fail "cached verdict disagrees with solver"
  done;
  (* A different structure misses. *)
  let other = H.of_named_edges [ ("e", [ "only" ]) ] in
  Alcotest.(check bool) "distinct graph misses" true
    (B.Result_cache.find cache other ~meth:"detk" ~k:1 = None);
  rm_rf dir

let cache_entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun sub ->
         let p = Filename.concat dir sub in
         if Sys.is_directory p then
           Sys.readdir p |> Array.to_list
           |> List.map (fun f -> Filename.concat p f)
         else [ p ])

let cache_corruption_degrades () =
  let dir = tmpdir () in
  let cache = B.Result_cache.create ~dir in
  let h = gen_hg (Rng.create 48) in
  let k = H.arity h in
  (* arity-wide bags always exist: guaranteed Yes with a witness *)
  (match Detk.solve ~deadline:(fuel ()) h ~k with
  | Detk.Decomposition d ->
      B.Result_cache.store cache h ~meth:"detk" ~k (B.Result_cache.Yes d)
  | _ -> Alcotest.fail "expected a decomposition at k = arity");
  Alcotest.(check bool) "entry hits before tampering" true
    (B.Result_cache.find cache h ~meth:"detk" ~k <> None);
  let files = cache_entry_files dir in
  Alcotest.(check int) "one entry on disk" 1 (List.length files);
  Kit.Metrics.enabled := true;
  Kit.Metrics.reset ();
  List.iter
    (fun corrupt ->
      let oc = open_out (List.hd files) in
      output_string oc corrupt;
      close_out oc;
      Alcotest.(check bool) "tampered entry degrades to miss" true
        (B.Result_cache.find cache h ~meth:"detk" ~k = None))
    [
      "not json at all";
      (* witness for the wrong graph: parses, fails validation *)
      {|{"fingerprint":"0000000000000000","method":"detk","k":1,"verdict":"yes","width":1,"hd":"garbage"}|};
      {|{"fingerprint":"0000000000000000","method":"detk","k":1,"verdict":"maybe"}|};
    ];
  let snap = Kit.Metrics.snapshot () in
  let count name = try List.assoc name snap.Kit.Metrics.counters with Not_found -> 0 in
  Alcotest.(check int) "each tampering ticked cache.invalid" 3
    (count "cache.invalid");
  Kit.Metrics.enabled := false;
  Kit.Metrics.reset ();
  rm_rf dir

(* ---------- satellite (1): filename collisions ---------- *)

let instance name hg = B.Instance.make ~name ~group:B.Group.CQ_application ~source:"test" hg

let colliding_names_saved_distinctly () =
  Alcotest.(check bool) "a/b and a_b sanitise identically but get distinct files"
    true
    (B.Repository.hg_filename "a/b" <> B.Repository.hg_filename "a_b");
  let dir = tmpdir () in
  let ha = H.of_named_edges [ ("e", [ "u"; "v" ]) ] in
  let hb = H.of_named_edges [ ("e", [ "u"; "v" ]); ("f", [ "v"; "w" ]) ] in
  B.Repository.save ~dir [ instance "a/b" ha; instance "a_b" hb ];
  (match B.Repository.load ~dir with
  | Error m -> Alcotest.fail m
  | Ok { B.Repository.instances = loaded; skipped } ->
      Alcotest.(check int) "nothing skipped" 0 (List.length skipped);
      Alcotest.(check int) "both instances survive" 2 (List.length loaded);
      List.iter
        (fun (i : B.Instance.t) ->
          let expect = if i.B.Instance.name = "a/b" then ha else hb in
          Alcotest.(check bool)
            (Printf.sprintf "%s keeps its own graph" i.B.Instance.name)
            true
            (H.equal_structure expect i.B.Instance.hg))
        loaded);
  rm_rf dir

let duplicate_names_refused () =
  let dir = tmpdir () in
  let h = H.of_named_edges [ ("e", [ "u" ]) ] in
  (try
     B.Repository.save ~dir [ instance "same" h; instance "same" h ];
     Alcotest.fail "duplicate names must be refused"
   with Invalid_argument _ -> ());
  if Sys.file_exists dir then rm_rf dir

(* ---------- satellite (2): atomic save, control chars refused ---------- *)

let control_chars_refused () =
  let dir = tmpdir () in
  let h = H.of_named_edges [ ("e", [ "u" ]) ] in
  List.iter
    (fun bad ->
      try
        B.Repository.save ~dir [ instance bad h ];
        Alcotest.failf "name %S must be refused" bad
      with Invalid_argument _ -> ())
    [ "has\ttab"; "has\nnewline"; "has\rreturn" ];
  (try
     B.Repository.save ~dir
       [ B.Instance.make ~name:"ok" ~group:B.Group.CQ_random ~source:"bad\tsource" h ];
     Alcotest.fail "tab in source must be refused"
   with Invalid_argument _ -> ());
  if Sys.file_exists dir then rm_rf dir

let save_leaves_no_temp_files () =
  let dir = tmpdir () in
  B.Repository.save ~dir
    [ instance "one" (H.of_named_edges [ ("e", [ "u"; "v" ]) ]) ];
  Sys.readdir dir
  |> Array.iter (fun f ->
         Alcotest.(check bool)
           (Printf.sprintf "no temp residue: %s" f)
           false
           (contains_sub f ".tmp."));
  rm_rf dir

(* ---------- satellite (3): only line 1 can be the journal header ---------- *)

let journal_corrupt_header_detected () =
  let path = Filename.temp_file "hbjournal" ".jsonl" in
  let header = {|{"seed":7,"scale":0.05,"max_k":5}|} in
  let entry = {|{"instance":"x","outcomes":[]}|} in
  let write lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  (* Healthy file parses. *)
  write [ header; entry ];
  (match Experiments.Journal.read ~path with
  | Error m -> Alcotest.fail m
  | Ok { Experiments.Journal.header = h; entries; corrupt } ->
      Alcotest.(check bool) "header parsed" true (h <> None);
      Alcotest.(check int) "entry kept" 1 (List.length entries);
      Alcotest.(check int) "no corruption" 0 corrupt);
  (* Truncated header: line 1 is half a JSON object. A valid entry on
     line 2 must NOT be promoted to header. *)
  write [ String.sub header 0 (String.length header / 2); entry ];
  (match Experiments.Journal.read ~path with
  | Error m -> Alcotest.fail m
  | Ok { Experiments.Journal.header = h; corrupt; _ } ->
      Alcotest.(check bool) "truncated header is None" true (h = None);
      Alcotest.(check bool) "truncated header counts corrupt" true (corrupt >= 1));
  Sys.remove path

let journal_corrupt_header_refuses_resume () =
  let path = Filename.temp_file "hbjournal" ".jsonl" in
  let oc = open_out path in
  output_string oc "corrupt first line!\n";
  output_string oc {|{"instance":"x","outcomes":[]}|};
  output_string oc "\n";
  close_out oc;
  (match
     Experiments.prepare_campaign ~seed:7 ~scale:0.05
       ~budget:(fun () -> Kit.Deadline.of_fuel 1_000)
       ~jobs:1 ~isolate:false ~journal:path ~resume:true ()
   with
  | Ok _ -> Alcotest.fail "corrupt header must refuse resume"
  | Error m ->
      Alcotest.(check bool)
        (Printf.sprintf "error explains itself: %s" m)
        true
        (contains_sub m "header"));
  Sys.remove path

(* ---------- satellite (4): quoted names in the text format ---------- *)

let quoted_names_roundtrip () =
  let names = [ "plain"; "has space"; "quo\"te"; "back\\slash"; "a(b,c)."; "0digit" ] in
  let h = H.of_named_edges [ ("needs quoting too!", names) ] in
  let text = H.to_string h in
  match H.parse_report text with
  | Error ds ->
      Alcotest.failf "quoted round-trip failed: %s\n%s"
        (Kit.Diag.to_message ~source:text ds) text
  | Ok h' ->
      Alcotest.(check (array string)) "vertex names exact" h.H.vertex_names
        h'.H.vertex_names;
      Alcotest.(check (array string)) "edge names exact" h.H.edge_names
        h'.H.edge_names

(* ---------- pack / load_pack ---------- *)

let pack_roundtrip_sharded () =
  let dir = tmpdir () in
  let instances =
    B.Repository.build ~seed:7 ~scale:0.05 ()
    @ [ instance "wei\xc3\x9fe r\xc3\xbcbe" (H.of_named_edges [ ("e", [ "ä"; "has space" ]) ]) ]
  in
  B.Repository.pack ~dir ~shards:3 instances;
  Alcotest.(check int) "three shard files" 3
    (Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".hbr")
    |> List.length);
  (match B.Repository.load_pack ~dir with
  | Error m -> Alcotest.fail m
  | Ok { B.Repository.instances = loaded; skipped } ->
      Alcotest.(check int) "nothing skipped" 0 (List.length skipped);
      Alcotest.(check int) "count" (List.length instances) (List.length loaded);
      List.iter2
        (fun (a : B.Instance.t) (b : B.Instance.t) ->
          Alcotest.(check string) "order and name preserved" a.B.Instance.name
            b.B.Instance.name;
          Alcotest.(check bool) "structure" true
            (H.equal_structure a.B.Instance.hg b.B.Instance.hg))
        instances loaded);
  rm_rf dir

let pack_detects_corruption () =
  let dir = tmpdir () in
  let instances = B.Repository.build ~seed:7 ~scale:0.05 () in
  (* Two shards: even if the flipped byte tears one shard's framing and
     the rest of that shard is abandoned, the other must survive. *)
  B.Repository.pack ~dir ~shards:2 instances;
  let shard =
    Sys.readdir dir |> Array.to_list
    |> List.find (fun f -> Filename.check_suffix f ".hbr")
    |> Filename.concat dir
  in
  let data =
    let ic = open_in_bin shard in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* Flip one byte well inside the first entries (past the file header,
     landing in an entry's fields or graph blob). *)
  let tampered = Bytes.of_string data in
  Bytes.set tampered 100
    (Char.chr (Char.code (Bytes.get tampered 100) lxor 0xff));
  let oc = open_out_bin shard in
  output_bytes oc tampered;
  close_out oc;
  (match B.Repository.load_pack ~dir with
  | Error m -> Alcotest.fail m
  | Ok { B.Repository.instances = loaded; skipped } ->
      Alcotest.(check bool) "corruption detected" true (skipped <> []);
      Alcotest.(check bool) "healthy entries survive" true
        (List.length loaded < List.length instances && loaded <> []));
  rm_rf dir

(* ---------- mutation properties (hostile bytes) ---------- *)

(* Byte-damaged binary blobs must decode to a clean [Error] or a graph
   that is internally consistent — never an exception, never a graph
   whose re-encoding disagrees with itself. (A mutation CAN decode Ok:
   e.g. a flipped byte inside a name changes the name, not the frame.) *)
let prop_binary_mutation_safe () =
  let rng = Rng.create 31 in
  let ok = ref 0 and err = ref 0 in
  for i = 0 to n_cases - 1 do
    let h = gen_hg rng in
    let blob = Hg.Binary.to_string h in
    let mutated = Kit.Fuzz.mutate rng blob in
    match Hg.Binary.of_string_report mutated with
    | Error _ -> incr err
    | Ok h' ->
        incr ok;
        (* Fingerprint cross-check: decode of re-encode agrees. *)
        let reencoded = Hg.Binary.to_string h' in
        (match Hg.Binary.of_string_report reencoded with
        | Error d ->
            Alcotest.failf "case %d: re-encode undecodable: %s" i
              d.Kit.Diag.message
        | Ok h'' ->
            if H.fingerprint h' <> H.fingerprint h'' then
              Alcotest.failf "case %d: fingerprint unstable after mutation" i)
    | exception e ->
        Alcotest.failf "case %d: decoder raised %s" i (Printexc.to_string e)
  done;
  (* The sweep must exercise both outcomes, else the property is vacuous. *)
  Alcotest.(check bool) "saw rejections" true (!err > 0);
  Alcotest.(check bool) "sweep ran" true (!ok + !err = n_cases)

(* Same property one level up: byte-damaged .hbr shards must load as
   [Ok] with entries skipped or a clean [Error] — and every instance
   that does load must carry a self-consistent graph. *)
let pack_mutation_safe () =
  let instances = B.Repository.build ~seed:7 ~scale:0.05 () in
  let rng = Rng.create 77 in
  for case = 0 to 49 do
    let dir = tmpdir () in
    B.Repository.pack ~dir ~shards:2 instances;
    let shards =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".hbr")
      |> List.map (Filename.concat dir)
    in
    let shard = List.nth shards (Rng.int rng (List.length shards)) in
    let data =
      let ic = open_in_bin shard in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    let oc = open_out_bin shard in
    output_string oc (Kit.Fuzz.mutate rng data);
    close_out oc;
    (match B.Repository.load_pack ~dir with
    | Error _ -> ()
    | Ok { B.Repository.instances = loaded; skipped = _ } ->
        List.iter
          (fun (inst : B.Instance.t) ->
            let h = inst.B.Instance.hg in
            match Hg.Binary.of_string_report (Hg.Binary.to_string h) with
            | Ok h' when H.fingerprint h = H.fingerprint h' -> ()
            | _ -> Alcotest.failf "case %d: loaded instance inconsistent" case)
          loaded
    | exception e ->
        Alcotest.failf "case %d: load_pack raised %s" case
          (Printexc.to_string e));
    rm_rf dir
  done

let () =
  Alcotest.run "repo_cache"
    [
      ( "fingerprint",
        [
          Alcotest.test_case "permutation invariant (500 cases)" `Quick
            prop_fingerprint_permutation_invariant;
          Alcotest.test_case "distinct graphs distinct (500 cases)" `Quick
            prop_fingerprint_distinct;
          Alcotest.test_case "pinned value" `Quick fingerprint_pinned;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "text (500 cases)" `Quick prop_text_roundtrip;
          Alcotest.test_case "binary exact (500 cases)" `Quick
            prop_binary_roundtrip;
          Alcotest.test_case "text->binary->text (500 cases)" `Quick
            prop_text_binary_text;
          Alcotest.test_case "quoted names" `Quick quoted_names_roundtrip;
        ] );
      ( "cache",
        [
          Alcotest.test_case "store/hit replays validated verdicts" `Slow
            cache_store_hit_roundtrip;
          Alcotest.test_case "corruption degrades to miss" `Slow
            cache_corruption_degrades;
        ] );
      ( "repository",
        [
          Alcotest.test_case "colliding names kept apart" `Quick
            colliding_names_saved_distinctly;
          Alcotest.test_case "duplicate names refused" `Quick
            duplicate_names_refused;
          Alcotest.test_case "control characters refused" `Quick
            control_chars_refused;
          Alcotest.test_case "no temp residue after save" `Quick
            save_leaves_no_temp_files;
          Alcotest.test_case "pack round-trip over 3 shards" `Quick
            pack_roundtrip_sharded;
          Alcotest.test_case "pack corruption skipped, not trusted" `Quick
            pack_detects_corruption;
        ] );
      ( "mutation",
        [
          Alcotest.test_case "binary blobs (500 cases)" `Quick
            prop_binary_mutation_safe;
          Alcotest.test_case "pack shards (50 cases)" `Quick pack_mutation_safe;
        ] );
      ( "journal",
        [
          Alcotest.test_case "only line 1 can be the header" `Quick
            journal_corrupt_header_detected;
          Alcotest.test_case "corrupt header refuses resume" `Slow
            journal_corrupt_header_refuses_resume;
        ] );
    ]
