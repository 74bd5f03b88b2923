(* Tests for the hypergraph substrate: construction, I/O, components,
   invariants. *)

module Bitset = Kit.Bitset
module H = Hg.Hypergraph
module C = Hg.Components
module P = Hg.Properties

(* Named reference hypergraphs used across suites. *)
let triangle = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]
let path3 = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ] ]
let cycle4 = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 0 ] ]

let fano =
  (* The Fano plane: 7 points, 7 lines of 3 points each. *)
  H.of_int_edges
    [
      [ 0; 1; 2 ];
      [ 0; 3; 4 ];
      [ 0; 5; 6 ];
      [ 1; 3; 5 ];
      [ 1; 4; 6 ];
      [ 2; 3; 6 ];
      [ 2; 4; 5 ];
    ]

let construction () =
  let h = H.of_named_edges [ ("r", [ "x"; "y" ]); ("s", [ "y"; "z" ]) ] in
  Alcotest.(check int) "vertices" 3 h.H.n_vertices;
  Alcotest.(check int) "edges" 2 h.H.n_edges;
  Alcotest.(check string) "edge name" "s" (H.edge_name h 1);
  Alcotest.(check string) "vertex name" "z" (H.vertex_name h 2);
  Alcotest.(check int) "arity" 2 (H.arity h);
  Alcotest.(check (list int)) "edge 0" [ 0; 1 ] (Bitset.to_list (H.edge h 0))

let construction_errors () =
  Alcotest.check_raises "empty edge"
    (Invalid_argument "Hypergraph.create: empty edge") (fun () ->
      ignore (H.of_named_edges [ ("r", []) ]))

let incidence () =
  let h = triangle in
  Alcotest.(check (list int))
    "vertex 1 in edges 0,1" [ 0; 1 ]
    (Bitset.to_list h.H.incidence.(1));
  let touching = H.edges_touching h (Bitset.of_list 3 [ 0 ]) in
  Alcotest.(check (list int)) "edges touching v0" [ 0; 2 ] (Bitset.to_list touching)

let vertices_of_edges () =
  let vs = H.vertices_of_edges cycle4 (Bitset.of_list 4 [ 0; 2 ]) in
  Alcotest.(check (list int)) "union" [ 0; 1; 2; 3 ] (Bitset.to_list vs)

let dedup () =
  let h =
    H.of_named_edges
      [ ("a", [ "x"; "y" ]); ("b", [ "y"; "x" ]); ("c", [ "x" ]) ]
  in
  let h' = H.dedup_edges h in
  Alcotest.(check int) "dedup drops duplicate" 2 h'.H.n_edges

let roundtrip () =
  let s = H.to_string fano in
  match H.parse_report s with
  | Error ds -> Alcotest.fail (Kit.Diag.to_message ~source:s ds)
  | Ok h' ->
      Alcotest.(check bool) "structure preserved" true (H.equal_structure fano h')

let parse_flexible () =
  let text = "% a comment\n r1 (x, y),\n r2(y,z),\nr3(z , x)." in
  match H.parse_report text with
  | Error ds -> Alcotest.fail (Kit.Diag.to_message ~source:text ds)
  | Ok h ->
      Alcotest.(check int) "edges" 3 h.H.n_edges;
      let expected =
        H.of_named_edges
          [ ("a", [ "x"; "y" ]); ("b", [ "y"; "z" ]); ("c", [ "z"; "x" ]) ]
      in
      Alcotest.(check bool) "triangle over x,y,z" true (H.equal_structure h expected);
      (* equal_structure compares via names, so the int-edge triangle
         (named v0..v2) differs. *)
      Alcotest.(check bool) "names matter" false (H.equal_structure h triangle)

let parse_errors () =
  (match H.parse_report "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty should fail");
  (match H.parse_report "r(x," with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unclosed should fail");
  match H.parse_report "r(x). garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing should fail"

let file_robust () =
  let path = Filename.temp_file "hb" ".hg" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let write s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  (* The CLI's load path: the one whole-file reader, then the report
     parser. *)
  let load () =
    Result.bind (Benchlib.Fsio.read_file path) (fun source ->
        Result.map_error
          (fun ds -> Kit.Diag.to_message ~file:path ~source ds)
          (H.parse_report source))
  in
  let text = H.to_string fano in
  write text;
  (match load () with
  | Ok h -> Alcotest.(check bool) "roundtrip" true (H.equal_structure fano h)
  | Error m -> Alcotest.fail m);
  (* Truncate mid-edge (right after the last '('): always Error, never an
     escaped exception, and the channel must not leak — exercised well
     past the typical 1024-fd limit. *)
  write (String.sub text 0 (String.rindex text '(' + 1));
  for _ = 1 to 1100 do
    match load () with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "truncated file should not parse"
  done;
  match Benchlib.Fsio.read_file (path ^ ".does-not-exist") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file should fail"

(* --- components --------------------------------------------------------- *)

let components_empty_separator () =
  let comps = C.components path3 ~within:(H.all_edges path3) (Bitset.empty 3) in
  Alcotest.(check int) "connected -> one component" 1 (List.length comps)

let components_cut_vertex () =
  (* Removing the middle vertex of the path disconnects it. *)
  let comps = C.components path3 ~within:(H.all_edges path3) (Bitset.of_list 3 [ 1 ]) in
  Alcotest.(check int) "two components" 2 (List.length comps)

let components_absorbed_edges () =
  (* Edges fully inside the separator vanish from all components. *)
  let h = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
  let comps = C.components h ~within:(H.all_edges h) (Bitset.of_list 4 [ 1; 2 ]) in
  let sizes = List.map Bitset.cardinal comps |> List.sort compare in
  Alcotest.(check (list int)) "middle edge absorbed" [ 1; 1 ] sizes

let components_partition () =
  (* Components partition the non-absorbed edges of [within]. *)
  let h = cycle4 in
  let u = Bitset.of_list 4 [ 0; 2 ] in
  let comps = C.components h ~within:(H.all_edges h) u in
  Alcotest.(check int) "cycle split by opposite vertices" 2 (List.length comps);
  let all = List.fold_left Bitset.union (Bitset.empty 4) comps in
  Alcotest.(check int) "all edges present" 4 (Bitset.cardinal all)

let components_within_subset () =
  let h = cycle4 in
  let within = Bitset.of_list 4 [ 0; 1 ] in
  let comps = C.components h ~within (Bitset.empty 4) in
  Alcotest.(check int) "edges 0-1 share vertex 1" 1 (List.length comps)

let components_extended_special () =
  (* A special edge glues two otherwise disconnected ordinary edges. *)
  let h = H.of_int_edges [ [ 0; 1 ]; [ 2; 3 ] ] in
  let special = [| Bitset.of_list 4 [ 1; 2 ] |] in
  let comps = C.components_extended h ~within:(H.all_edges h) ~special (Bitset.empty 4) in
  Alcotest.(check int) "one glued component" 1 (List.length comps);
  let es, sps = List.hd comps in
  Alcotest.(check int) "ordinary edges" 2 (Bitset.cardinal es);
  Alcotest.(check (list int)) "special edges" [ 0 ] sps

let components_extended_separated () =
  let h = H.of_int_edges [ [ 0; 1 ]; [ 2; 3 ] ] in
  let special = [| Bitset.of_list 4 [ 1; 2 ] |] in
  (* Separate exactly on the special edge's vertices. *)
  let comps =
    C.components_extended h ~within:(H.all_edges h) ~special (Bitset.of_list 4 [ 1; 2 ])
  in
  Alcotest.(check int) "two components, special absorbed" 2 (List.length comps);
  List.iter (fun (_, sps) -> Alcotest.(check (list int)) "no special" [] sps) comps

let balanced_separator () =
  let h = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ] in
  (* Vertex 2 splits the path of 4 edges into components of size 2 and 2. *)
  Alcotest.(check bool)
    "middle is balanced" true
    (C.is_balanced h ~within:(H.all_edges h) ~special:[||] (Bitset.of_list 5 [ 2 ]));
  (* Vertex 0 leaves a single component with all 4 edges: unbalanced. *)
  Alcotest.(check bool)
    "end is not balanced" false
    (C.is_balanced h ~within:(H.all_edges h) ~special:[||] (Bitset.of_list 5 [ 0 ]))

(* The staged, early-exit [is_balanced] (heavy-vertex prefilter, then a
   BFS that stops at the first oversized component) against the
   definition: every component of [components_extended] within half the
   total. One staged checker is reused across all bags of a case, so
   stale scratch state between separators would show up here too. *)
let balanced_differential () =
  let rng = Kit.Rng.create 2019 in
  let random_set n p = List.filter (fun _ -> Kit.Rng.int rng 100 < p) (List.init n Fun.id) in
  for case = 1 to 400 do
    let nv = 1 + Kit.Rng.int rng 12 in
    let ne = 1 + Kit.Rng.int rng 14 in
    let h =
      H.of_int_edges
        (List.init ne (fun _ ->
             Kit.Rng.int rng nv
             :: List.init (Kit.Rng.int rng 4) (fun _ -> Kit.Rng.int rng nv)))
    in
    let nv = h.H.n_vertices in
    let within = Bitset.of_list ne (random_set ne (30 + Kit.Rng.int rng 71)) in
    let special =
      Array.init (Kit.Rng.int rng 4) (fun _ ->
          Bitset.of_list nv (Kit.Rng.int rng nv :: random_set nv 25))
    in
    let bound = (Bitset.cardinal within + Array.length special) / 2 in
    let reference u =
      List.for_all
        (fun (es, sps) -> Bitset.cardinal es + List.length sps <= bound)
        (C.components_extended h ~within ~special u)
    in
    let heavy = C.heavy_vertices h ~within ~special in
    let staged = C.is_balanced h ~within ~special in
    let edge_union () =
      List.fold_left
        (fun acc e -> Bitset.union acc (H.edge h e))
        (Bitset.empty nv)
        (random_set ne 20)
    in
    let bags =
      [ Bitset.empty nv; Bitset.full nv; edge_union (); edge_union () ]
      @ List.init 4 (fun _ -> Bitset.of_list nv (random_set nv (Kit.Rng.int rng 101)))
    in
    List.iteri
      (fun i u ->
        let expect = reference u in
        let what = Printf.sprintf "case %d bag %d" case i in
        Alcotest.(check bool) (what ^ ": staged") expect (staged u);
        Alcotest.(check bool)
          (what ^ ": one-shot") expect
          (C.is_balanced h ~within ~special u);
        if expect then
          Alcotest.(check bool)
            (what ^ ": prefilter keeps a balanced bag")
            true (Bitset.subset heavy u))
      bags
  done

let connected_check () =
  Alcotest.(check bool) "triangle connected" true (C.connected triangle);
  let h = H.of_int_edges [ [ 0; 1 ]; [ 2; 3 ] ] in
  Alcotest.(check bool) "two islands" false (C.connected h)

(* --- properties --------------------------------------------------------- *)

let degree () =
  Alcotest.(check int) "triangle degree" 2 (P.degree triangle);
  Alcotest.(check int) "fano degree" 3 (P.degree fano);
  let star = H.of_int_edges [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 0; 4 ] ] in
  Alcotest.(check int) "star degree" 4 (P.degree star)

let intersection_size () =
  Alcotest.(check int) "triangle bip" 1 (P.intersection_size triangle);
  Alcotest.(check int) "fano bip" 1 (P.intersection_size fano);
  let h = H.of_int_edges [ [ 0; 1; 2; 3 ]; [ 1; 2; 3; 4 ] ] in
  Alcotest.(check int) "large overlap" 3 (P.intersection_size h);
  let single = H.of_int_edges [ [ 0; 1 ] ] in
  Alcotest.(check int) "single edge has bip 0" 0 (P.intersection_size single)

let multi_intersection () =
  let h =
    H.of_int_edges [ [ 0; 1; 2; 9 ]; [ 0; 1; 2; 8 ]; [ 0; 1; 3; 7 ]; [ 0; 4; 5; 6 ] ]
  in
  Alcotest.(check int) "bip = pairwise" 3 (P.multi_intersection_size h ~c:2);
  Alcotest.(check int) "3-bmip" 2 (P.multi_intersection_size h ~c:3);
  Alcotest.(check int) "4-bmip" 1 (P.multi_intersection_size h ~c:4);
  Alcotest.(check int) "c larger than m" 0 (P.multi_intersection_size h ~c:5)

let multi_intersection_agrees_with_pairwise =
  (* Random hypergraphs: c=2 must agree with the dedicated pairwise scan. *)
  QCheck.Test.make ~name:"2-bmip equals intersection_size" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 8) (list_size (int_range 1 5) (int_bound 9))))
    (fun edges ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (fun e -> e <> []) edges in
      QCheck.assume (edges <> []);
      let h = H.of_int_edges edges in
      P.multi_intersection_size h ~c:2 = P.intersection_size h)

let vc_dimension () =
  (* A single edge shatters nothing: even a singleton {v} needs the empty
     trace, i.e. an edge avoiding v. *)
  let single = H.of_int_edges [ [ 0; 1; 2 ] ] in
  Alcotest.(check int) "single edge" 0 (P.vc_dimension single);
  Alcotest.(check int) "triangle" 1 (P.vc_dimension triangle);
  (* All four traces of {0,1} present (edge [2] provides the empty one). *)
  let pow2 = H.of_int_edges [ [ 0 ]; [ 1 ]; [ 0; 1 ]; [ 2 ] ] in
  Alcotest.(check int) "powerset of pair" 2 (P.vc_dimension pow2);
  Alcotest.(check int) "fano vc" 2 (P.vc_dimension fano)

let vc_dimension_empty_trace () =
  (* Shattering requires the empty trace: an edge avoiding the set. *)
  let h = H.of_int_edges [ [ 0; 1 ]; [ 0 ]; [ 1 ]; [ 2 ] ] in
  Alcotest.(check int) "vc 2 with empty trace via e3" 2 (P.vc_dimension h)

let vc_timeout () =
  let big =
    H.of_int_edges (List.init 40 (fun i -> List.init 15 (fun j -> (i * 7 + j * 3) mod 60)))
  in
  match P.vc_dimension ~deadline:(Kit.Deadline.of_fuel 10) big with
  | _ -> Alcotest.fail "expected timeout"
  | exception Kit.Deadline.Timed_out -> ()

let profile () =
  let p = P.profile fano in
  Alcotest.(check int) "vertices" 7 p.P.vertices;
  Alcotest.(check int) "edges" 7 p.P.edges;
  Alcotest.(check int) "arity" 3 p.P.arity;
  Alcotest.(check int) "degree" 3 p.P.degree;
  Alcotest.(check int) "bip" 1 p.P.bip;
  Alcotest.(check (option int)) "vc" (Some 2) p.P.vc_dim

let n_gt_m () =
  Alcotest.(check bool) "triangle n=m" false (P.has_more_vertices_than_edges triangle);
  let h = H.of_int_edges [ [ 0; 1; 2; 3; 4 ] ] in
  Alcotest.(check bool) "one big edge" true (P.has_more_vertices_than_edges h)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "hypergraph"
    [
      ( "construction",
        [
          Alcotest.test_case "named edges" `Quick construction;
          Alcotest.test_case "errors" `Quick construction_errors;
          Alcotest.test_case "incidence" `Quick incidence;
          Alcotest.test_case "vertices_of_edges" `Quick vertices_of_edges;
          Alcotest.test_case "dedup" `Quick dedup;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick roundtrip;
          Alcotest.test_case "flexible input" `Quick parse_flexible;
          Alcotest.test_case "errors" `Quick parse_errors;
          Alcotest.test_case "file robustness" `Quick file_robust;
        ] );
      ( "components",
        [
          Alcotest.test_case "empty separator" `Quick components_empty_separator;
          Alcotest.test_case "cut vertex" `Quick components_cut_vertex;
          Alcotest.test_case "absorbed edges" `Quick components_absorbed_edges;
          Alcotest.test_case "partition" `Quick components_partition;
          Alcotest.test_case "within subset" `Quick components_within_subset;
          Alcotest.test_case "special glue" `Quick components_extended_special;
          Alcotest.test_case "special separated" `Quick components_extended_separated;
          Alcotest.test_case "balanced" `Quick balanced_separator;
          Alcotest.test_case "balanced = definition" `Quick balanced_differential;
          Alcotest.test_case "connected" `Quick connected_check;
        ] );
      ( "properties",
        [
          Alcotest.test_case "degree" `Quick degree;
          Alcotest.test_case "intersection size" `Quick intersection_size;
          Alcotest.test_case "multi-intersection" `Quick multi_intersection;
          qt multi_intersection_agrees_with_pairwise;
          Alcotest.test_case "vc dimension" `Quick vc_dimension;
          Alcotest.test_case "vc empty trace" `Quick vc_dimension_empty_trace;
          Alcotest.test_case "vc timeout" `Quick vc_timeout;
          Alcotest.test_case "profile" `Quick profile;
          Alcotest.test_case "n > m" `Quick n_gt_m;
        ] );
    ]
