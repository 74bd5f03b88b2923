(* Direct tests of the decomposition validators: hand-crafted
   decompositions violating each condition in turn must be rejected with
   the right violation, and repaired versions accepted. These validators
   gate every algorithm test, so they get their own scrutiny. *)

module H = Hg.Hypergraph
module Bitset = Kit.Bitset

let triangle = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]

let elt h e : Decomp.cover_elt =
  {
    Decomp.label = H.edge_name h e;
    vertices = H.edge h e;
    source = Decomp.Original e;
  }

let node bag cover children : Decomp.node = { Decomp.bag; cover; children }

let bag l = Bitset.of_list 3 l

(* A correct single-node GHD/HD of the triangle: bag {0,1,2}, cover
   {e0, e1}. *)
let good = node (bag [ 0; 1; 2 ]) [ elt triangle 0; elt triangle 1 ] []

let accepts_valid () =
  Alcotest.(check bool) "valid HD accepted" true (Decomp.check_hd triangle good = []);
  Alcotest.(check bool) "valid GHD accepted" true (Decomp.check_ghd triangle good = []);
  Alcotest.(check int) "width" 2 (Decomp.width good);
  Alcotest.(check int) "size" 1 (Decomp.size good)

let detects_uncovered_edge () =
  (* Bag misses vertex 2, so edges e1 = {1,2} and e2 = {2,0} have no home. *)
  let d = node (bag [ 0; 1 ]) [ elt triangle 0 ] [] in
  let violations = Decomp.check_td triangle d in
  Alcotest.(check bool) "edge violation found" true
    (List.exists (function Decomp.Edge_not_covered _ -> true | _ -> false) violations)

let detects_disconnected_vertex () =
  (* Vertex 0 appears in two bags whose connecting node omits it. *)
  let d =
    node (bag [ 0; 1 ])
      [ elt triangle 0 ]
      [
        node (bag [ 1; 2 ])
          [ elt triangle 1 ]
          [ node (bag [ 2; 0 ]) [ elt triangle 2 ] [] ];
      ]
  in
  let violations = Decomp.check_td triangle d in
  Alcotest.(check bool) "connectedness violation" true
    (List.exists
       (function Decomp.Vertex_not_connected 0 -> true | _ -> false)
       violations)

let detects_bag_not_covered () =
  (* Bag {0,1,2} but cover only e0 = {0,1}. *)
  let d = node (bag [ 0; 1; 2 ]) [ elt triangle 0 ] [] in
  let violations = Decomp.check_ghd triangle d in
  Alcotest.(check bool) "cover violation" true
    (List.exists (function Decomp.Bag_not_covered _ -> true | _ -> false) violations)

let detects_fake_cover_element () =
  (* A cover element that is not a subset of any edge. *)
  let fake : Decomp.cover_elt =
    { Decomp.label = "fake"; vertices = bag [ 0; 1; 2 ]; source = Decomp.Original 0 }
  in
  let d = node (bag [ 0; 1; 2 ]) [ fake ] [] in
  let violations = Decomp.check_ghd triangle d in
  Alcotest.(check bool) "fake element rejected" true
    (List.exists (function Decomp.Cover_not_an_edge _ -> true | _ -> false) violations)

let detects_special_condition () =
  (* Root covers e0 = {0,1} with bag forced down to {0}; vertex 1 of
     B(lambda_root) reappears below without being in the root bag. *)
  let h = H.of_int_edges [ [ 0; 1 ]; [ 0; 1; 2 ] ] in
  let d =
    {
      Decomp.bag = Bitset.of_list 3 [ 0 ];
      cover =
        [ { Decomp.label = "e0"; vertices = H.edge h 0; source = Decomp.Original 0 } ];
      children =
        [
          {
            Decomp.bag = Bitset.of_list 3 [ 0; 1; 2 ];
            cover =
              [ { Decomp.label = "e1"; vertices = H.edge h 1; source = Decomp.Original 1 } ];
            children = [];
          };
        ];
    }
  in
  (* As a GHD this is fine (bags covered, edges covered, connected)... *)
  Alcotest.(check bool) "valid GHD" true (Decomp.check_ghd h d = []);
  (* ... but the special condition fails at the root: 1 ∈ V(T_root) ∩
     B(lambda_root) yet 1 ∉ B_root. *)
  let violations = Decomp.check_hd h d in
  Alcotest.(check bool) "special condition violation" true
    (List.exists (function Decomp.Special_condition _ -> true | _ -> false) violations)

let subedge_cover_elements_ok () =
  (* Subedge sources are legal cover elements when ⊆ their parent. *)
  let sub : Decomp.cover_elt =
    { Decomp.label = "e0~1"; vertices = bag [ 0 ]; source = Decomp.Subedge 0 }
  in
  let d =
    node (bag [ 0; 1; 2 ]) [ sub; elt triangle 1; elt triangle 2 ] []
  in
  Alcotest.(check bool) "subedge accepted" true (Decomp.check_ghd triangle d = []);
  let bad : Decomp.cover_elt =
    { Decomp.label = "bad"; vertices = bag [ 2 ]; source = Decomp.Subedge 0 }
  in
  let d = node (bag [ 0; 1; 2 ]) [ elt triangle 0; elt triangle 1; bad ] [] in
  Alcotest.(check bool) "non-subset subedge rejected" false
    (Decomp.check_ghd triangle d = [])

let special_sources_rejected () =
  let sp : Decomp.cover_elt =
    { Decomp.label = "__sp"; vertices = bag [ 0; 1 ]; source = Decomp.Special }
  in
  let d = node (bag [ 0; 1; 2 ]) [ sp; elt triangle 1 ] [] in
  Alcotest.(check bool) "special edge in final GHD rejected" false
    (Decomp.check_ghd triangle d = [])

let map_covers_and_nodes () =
  let d =
    node (bag [ 0; 1 ]) [ elt triangle 0 ]
      [ node (bag [ 1; 2 ]) [ elt triangle 1 ] [] ]
  in
  Alcotest.(check int) "nodes" 2 (List.length (Decomp.nodes d));
  let upper = Decomp.map_covers (fun e -> { e with Decomp.label = String.uppercase_ascii e.Decomp.label }) d in
  let labels =
    List.concat_map (fun n -> List.map (fun c -> c.Decomp.label) n.Decomp.cover) (Decomp.nodes upper)
  in
  Alcotest.(check (list string)) "mapped labels" [ "E0"; "E1" ] labels

let to_dot_renders () =
  let dot = Decomp.to_dot triangle good in
  Alcotest.(check bool) "digraph header" true
    (String.length dot > 8 && String.sub dot 0 7 = "digraph")

let fractional_validator () =
  let fhd =
    {
      Decomp.Fractional.fbag = bag [ 0; 1; 2 ];
      fcover = [ (0, 0.5); (1, 0.5); (2, 0.5) ];
      fchildren = [];
    }
  in
  Alcotest.(check bool) "half weights cover the triangle" true
    (Decomp.Fractional.check_fhd triangle fhd = []);
  Alcotest.(check (float 1e-9)) "width" 1.5 (Decomp.Fractional.width fhd);
  let under =
    { fhd with Decomp.Fractional.fcover = [ (0, 0.5); (1, 0.5) ] }
  in
  Alcotest.(check bool) "undercovered bag rejected" false
    (Decomp.Fractional.check_fhd triangle under = [])

let () =
  Alcotest.run "decomp"
    [
      ( "validators",
        [
          Alcotest.test_case "accepts valid" `Quick accepts_valid;
          Alcotest.test_case "uncovered edge" `Quick detects_uncovered_edge;
          Alcotest.test_case "disconnected vertex" `Quick detects_disconnected_vertex;
          Alcotest.test_case "bag not covered" `Quick detects_bag_not_covered;
          Alcotest.test_case "fake cover element" `Quick detects_fake_cover_element;
          Alcotest.test_case "special condition" `Quick detects_special_condition;
          Alcotest.test_case "subedge elements" `Quick subedge_cover_elements_ok;
          Alcotest.test_case "special sources" `Quick special_sources_rejected;
        ] );
      ( "utilities",
        [
          Alcotest.test_case "map/nodes" `Quick map_covers_and_nodes;
          Alcotest.test_case "to_dot" `Quick to_dot_renders;
        ] );
      ( "fractional",
        [
          Alcotest.test_case "validator" `Quick fractional_validator;
        ] );
    ]
