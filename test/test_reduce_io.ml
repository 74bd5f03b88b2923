(* Tests for the width-preserving hypergraph reductions and decomposition
   serialisation. *)

module H = Hg.Hypergraph
module Bitset = Kit.Bitset

(* --- Reduce ------------------------------------------------------------------ *)

let subsumed_edges () =
  let h = H.of_int_edges [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 1; 2 ]; [ 3; 0 ] ] in
  let r = Hg.Reduce.reduce h in
  Alcotest.(check (list int)) "e1 and e2 subsumed" [ 1; 2 ] r.Hg.Reduce.removed_edges;
  Alcotest.(check int) "two edges kept" 2 r.Hg.Reduce.reduced.H.n_edges

let duplicates () =
  let h = H.of_int_edges [ [ 0; 1 ]; [ 0; 1 ] ] in
  let r = Hg.Reduce.reduce h in
  Alcotest.(check int) "one survivor" 1 r.Hg.Reduce.reduced.H.n_edges

let twin_vertices () =
  (* Vertices 1 and 2 occur in exactly the same edges. *)
  let h = H.of_int_edges [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ] in
  let r = Hg.Reduce.reduce h in
  Alcotest.(check int) "twins merged" 3 r.Hg.Reduce.reduced.H.n_vertices;
  Alcotest.(check bool) "not a noop" false (Hg.Reduce.is_noop r)

let noop_on_irreducible () =
  let triangle = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ] in
  let r = Hg.Reduce.reduce triangle in
  Alcotest.(check bool) "triangle untouched" true (Hg.Reduce.is_noop r);
  Alcotest.(check bool) "structure preserved" true
    (H.equal_structure triangle r.Hg.Reduce.reduced)

let prop_reduction_preserves_hw =
  QCheck.Test.make ~name:"reduction preserves hypertree width" ~count:150
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 6) (list_size (int_range 1 4) (int_bound 7))))
    (fun edges ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (( <> ) []) edges in
      QCheck.assume (edges <> []);
      let h = H.of_int_edges edges in
      let r = Hg.Reduce.reduce h in
      let hw g =
        match Detk.hypertree_width g with Some (k, _), _ -> Some k | None, _ -> None
      in
      hw h = hw r.Hg.Reduce.reduced)

let prop_reduction_never_grows =
  QCheck.Test.make ~name:"reduction never grows the hypergraph" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 8) (list_size (int_range 1 5) (int_bound 9))))
    (fun edges ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (( <> ) []) edges in
      QCheck.assume (edges <> []);
      let h = H.of_int_edges edges in
      let r = Hg.Reduce.reduce h in
      r.Hg.Reduce.reduced.H.n_edges <= h.H.n_edges
      && r.Hg.Reduce.reduced.H.n_vertices <= h.H.n_vertices)

(* --- Decomp_io ---------------------------------------------------------------- *)

let triangle = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]

let io_roundtrip () =
  match Detk.solve triangle ~k:2 with
  | Detk.Decomposition d -> (
      let text = Decomp_io.to_text triangle d in
      match Decomp_io.of_text triangle text with
      | Error m -> Alcotest.fail m
      | Ok d' ->
          Alcotest.(check bool) "valid after roundtrip" true
            (Decomp.check_hd triangle d' = []);
          Alcotest.(check int) "same width" (Decomp.width d) (Decomp.width d');
          Alcotest.(check int) "same size" (Decomp.size d) (Decomp.size d'))
  | _ -> Alcotest.fail "triangle decomposes"

let io_roundtrip_random =
  QCheck.Test.make ~name:"decomposition text roundtrip" ~count:80
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 6) (list_size (int_range 1 4) (int_bound 7))))
    (fun edges ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (( <> ) []) edges in
      QCheck.assume (edges <> []);
      let h = H.of_int_edges edges in
      match Detk.hypertree_width h with
      | Some (_, d), _ -> (
          match Decomp_io.of_text h (Decomp_io.to_text h d) with
          | Ok d' ->
              Decomp.check_hd h d' = [] && Decomp.width d' = Decomp.width d
          | Error _ -> false)
      | None, _ -> true)

let io_subedges () =
  (* A decomposition whose cover uses a subedge must survive the trip. *)
  let sub : Decomp.cover_elt =
    {
      Decomp.label = "e0~{v0}";
      vertices = Bitset.of_list 3 [ 0 ];
      source = Decomp.Subedge 0;
    }
  in
  let elt e : Decomp.cover_elt =
    {
      Decomp.label = H.edge_name triangle e;
      vertices = H.edge triangle e;
      source = Decomp.Original e;
    }
  in
  let d : Decomp.node =
    { Decomp.bag = Bitset.of_list 3 [ 0; 1; 2 ]; cover = [ sub; elt 1 ]; children = [] }
  in
  let text = Decomp_io.to_text triangle d in
  match Decomp_io.of_text triangle text with
  | Error m -> Alcotest.fail m
  | Ok d' -> (
      match (List.hd d'.Decomp.cover).Decomp.source with
      | Decomp.Subedge 0 -> ()
      | _ -> Alcotest.fail "subedge source lost")

(* Names resolve through an index, not a scan: a 600-vertex path with
   quoted names goes out and back to the same decomposition, text for
   text. *)
let io_roundtrip_large () =
  let n = 600 in
  let name i = Printf.sprintf "v %d" i in
  let h =
    H.of_named_edges
      (List.init (n - 1) (fun i -> (Printf.sprintf "e%d" i, [ name i; name (i + 1) ])))
  in
  Alcotest.(check bool) "at least 500 vertices" true (h.H.n_vertices >= 500);
  match Detk.solve ~deadline:(Kit.Deadline.of_fuel 1_000_000) h ~k:1 with
  | Detk.Decomposition d -> (
      let text = Decomp_io.to_text h d in
      match Decomp_io.of_text h text with
      | Error m -> Alcotest.fail m
      | Ok d' ->
          Alcotest.(check bool) "valid after roundtrip" true
            (Decomp.check_hd h d' = []);
          Alcotest.(check int) "same size" (Decomp.size d) (Decomp.size d');
          Alcotest.(check string) "same text" text (Decomp_io.to_text h d'))
  | _ -> Alcotest.fail "a path has width 1"

let io_errors () =
  List.iter
    (fun text ->
      match Decomp_io.of_text triangle text with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "should fail: %s" text)
    [
      "";
      "{v0, v1} [nonexistent]";
      "{bogus} [e0]";
      "  {v0} [e0]" (* indented root *);
      "{v0, v1} [e0]\n{v1, v2} [e1]" (* two roots *);
      "junk";
    ];
  (* Unknown names keep their messages. *)
  List.iter
    (fun (text, msg) ->
      Alcotest.(check (result unit string))
        text (Error msg)
        (Result.map ignore (Decomp_io.of_text triangle text)))
    [
      ("{v0, v1} [nonexistent]", "unknown edge nonexistent");
      ("{bogus} [e0]", "unknown vertex bogus");
      ("{v0} [e0~{nowhere}]", "unknown vertex nowhere");
    ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "reduce_io"
    [
      ( "reduce",
        [
          Alcotest.test_case "subsumed edges" `Quick subsumed_edges;
          Alcotest.test_case "duplicates" `Quick duplicates;
          Alcotest.test_case "twin vertices" `Quick twin_vertices;
          Alcotest.test_case "noop" `Quick noop_on_irreducible;
          qt prop_reduction_preserves_hw;
          qt prop_reduction_never_grows;
        ] );
      ( "decomp_io",
        [
          Alcotest.test_case "roundtrip" `Quick io_roundtrip;
          qt io_roundtrip_random;
          Alcotest.test_case "subedges" `Quick io_subedges;
          Alcotest.test_case "600 vertices roundtrip" `Quick io_roundtrip_large;
          Alcotest.test_case "errors" `Quick io_errors;
        ] );
    ]
