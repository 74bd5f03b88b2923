(* Tests for the DetKDecomp hypertree-decomposition engine, including
   validation of every produced decomposition and known widths for
   reference hypergraphs. *)

module Bitset = Kit.Bitset
module H = Hg.Hypergraph

let triangle = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]

let cycle n =
  H.of_int_edges (List.init n (fun i -> [ i; (i + 1) mod n ]))

let fano =
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

let clique n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := [ i; j ] :: !edges
    done
  done;
  H.of_int_edges !edges

(* Grid graph (binary edges) r x c: treewidth min(r,c), hw <= ceil stuff;
   used as a harder instance. *)
let grid r c =
  let v i j = (i * c) + j in
  let edges = ref [] in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if j + 1 < c then edges := [ v i j; v i (j + 1) ] :: !edges;
      if i + 1 < r then edges := [ v i j; v (i + 1) j ] :: !edges
    done
  done;
  H.of_int_edges !edges

let expect_width name h k =
  (* hw(h) must be exactly k: yes at k, no at k-1, and the witness valid. *)
  (match Detk.solve h ~k with
  | Detk.Decomposition d ->
      Alcotest.(check bool) (name ^ ": width bound") true (Decomp.width d <= k);
      (match Decomp.check_hd h d with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s: invalid HD: %a" name (Decomp.pp_violation h) v)
  | Detk.No_decomposition -> Alcotest.failf "%s: expected HD of width %d" name k
  | Detk.Timeout -> Alcotest.failf "%s: unexpected timeout" name);
  if k > 1 then
    match Detk.solve h ~k:(k - 1) with
    | Detk.No_decomposition -> ()
    | Detk.Decomposition _ -> Alcotest.failf "%s: width %d should fail" name (k - 1)
    | Detk.Timeout -> Alcotest.failf "%s: unexpected timeout" name

let known_widths () =
  expect_width "single edge" (H.of_int_edges [ [ 0; 1; 2 ] ]) 1;
  expect_width "path" (H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]) 1;
  expect_width "triangle" triangle 2;
  expect_width "C4" (cycle 4) 2;
  expect_width "C5" (cycle 5) 2;
  expect_width "C6" (cycle 6) 2;
  expect_width "K4" (clique 4) 2;
  expect_width "K5" (clique 5) 3

let fano_width () = expect_width "fano" fano 3

let acyclic_star () =
  let star = H.of_int_edges [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 0; 4 ] ] in
  expect_width "star" star 1

let disconnected () =
  let h = H.of_int_edges [ [ 0; 1 ]; [ 2; 3 ] ] in
  expect_width "two islands" h 1

let big_arity_acyclic () =
  (* A chain of wide edges overlapping in single vertices is acyclic. *)
  let h = H.of_int_edges [ [ 0; 1; 2; 3 ]; [ 3; 4; 5; 6 ]; [ 6; 7; 8; 9 ] ] in
  expect_width "wide chain" h 1

let hypertree_width_driver () =
  let opt, _ = Detk.hypertree_width triangle in
  (match opt with
  | Some (hw, d) ->
      Alcotest.(check int) "triangle hw" 2 hw;
      Alcotest.(check bool) "valid" true (Decomp.check_hd triangle d = [])
  | None -> Alcotest.fail "triangle hw must be found");
  let opt, _ = Detk.hypertree_width (cycle 7) in
  match opt with
  | Some (hw, _) -> Alcotest.(check int) "C7 hw" 2 hw
  | None -> Alcotest.fail "C7 hw must be found"

let grid_width () =
  (* 3x3 grid graph: treewidth 3... its hw is 2 (cover bags by 2 edges). *)
  let h = grid 3 3 in
  match Detk.solve h ~k:3 with
  | Detk.Decomposition d ->
      Alcotest.(check bool) "valid HD" true (Decomp.check_hd h d = [])
  | Detk.No_decomposition -> Alcotest.fail "3x3 grid should have hw <= 3"
  | Detk.Timeout -> Alcotest.fail "timeout"

let timeout_path () =
  let h = grid 5 5 in
  match Detk.solve ~deadline:(Kit.Deadline.of_fuel 50) h ~k:2 with
  | Detk.Timeout -> ()
  | Detk.Decomposition _ | Detk.No_decomposition ->
      Alcotest.fail "expected a timeout with tiny fuel"

let timeout_wall () =
  (* A wall budget that is already exhausted must abort the search once the
     amortised clock poll fires — never leak a partial decomposition. *)
  let h = grid 5 5 in
  match Detk.solve ~deadline:(Kit.Deadline.of_seconds 0.0) h ~k:2 with
  | Detk.Timeout -> ()
  | Detk.Decomposition _ | Detk.No_decomposition ->
      Alcotest.fail "expected a timeout with a zero wall budget"

let timeout_mid_search_levels () =
  (* Expiring at several fuel levels mid-search: the outcome is always one
     of the three constructors, and a yes is always a full decomposition. *)
  let h = grid 4 4 in
  List.iter
    (fun fuel ->
      match Detk.solve ~deadline:(Kit.Deadline.of_fuel fuel) h ~k:3 with
      | Detk.Timeout | Detk.No_decomposition -> ()
      | Detk.Decomposition d ->
          Alcotest.(check bool)
            (Printf.sprintf "fuel %d yields a valid HD" fuel)
            true (Decomp.check_hd h d = []))
    [ 1; 10; 100; 1000 ]

let memoization_consistency () =
  (* With and without memoisation the verdict must coincide. *)
  let h = grid 3 3 in
  let verdict memoize =
    match Detk.solve ~memoize h ~k:2 with
    | Detk.Decomposition _ -> `Yes
    | Detk.No_decomposition -> `No
    | Detk.Timeout -> `Timeout
  in
  Alcotest.(check bool) "same verdict" true (verdict true = verdict false)

(* Property tests on random hypergraphs. *)
let random_hg_gen =
  QCheck.Gen.(
    let* n_edges = int_range 1 6 in
    let* edges =
      list_repeat n_edges
        (let* a = int_range 1 4 in
         list_repeat a (int_bound 7))
    in
    let edges = List.map (List.sort_uniq compare) edges in
    let edges = List.filter (fun e -> e <> []) edges in
    return (if edges = [] then [ [ 0 ] ] else edges))

let prop_hd_valid =
  QCheck.Test.make ~name:"produced HDs are valid and within width" ~count:150
    (QCheck.make random_hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      let k = 3 in
      match Detk.solve h ~k with
      | Detk.Decomposition d -> Decomp.check_hd h d = [] && Decomp.width d <= k
      | Detk.No_decomposition | Detk.Timeout -> true)

let prop_monotone =
  QCheck.Test.make ~name:"yes at k implies yes at k+1" ~count:80
    (QCheck.make random_hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      match Detk.solve h ~k:2 with
      | Detk.Decomposition _ -> (
          match Detk.solve h ~k:3 with
          | Detk.Decomposition _ -> true
          | Detk.No_decomposition | Detk.Timeout -> false)
      | Detk.No_decomposition | Detk.Timeout -> true)

let prop_always_some_width =
  QCheck.Test.make ~name:"hw <= number of edges" ~count:80
    (QCheck.make random_hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      match Detk.hypertree_width h with
      | Some (hw, d), _ -> hw <= h.H.n_edges && Decomp.check_hd h d = []
      | None, _ -> false)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "detk"
    [
      ( "known widths",
        [
          Alcotest.test_case "reference hypergraphs" `Quick known_widths;
          Alcotest.test_case "fano" `Quick fano_width;
          Alcotest.test_case "star" `Quick acyclic_star;
          Alcotest.test_case "disconnected" `Quick disconnected;
          Alcotest.test_case "wide chain" `Quick big_arity_acyclic;
          Alcotest.test_case "hw driver" `Quick hypertree_width_driver;
          Alcotest.test_case "grid" `Quick grid_width;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "timeout" `Quick timeout_path;
          Alcotest.test_case "wall timeout" `Quick timeout_wall;
          Alcotest.test_case "timeout mid-search" `Quick timeout_mid_search_levels;
          Alcotest.test_case "memoization" `Quick memoization_consistency;
        ] );
      ( "properties",
        [ qt prop_hd_valid; qt prop_monotone; qt prop_always_some_width ] );
    ]
