(* Tests for the extension modules: GYO acyclicity, primal-graph treewidth
   heuristics and the BMIP subedge variant. *)

module H = Hg.Hypergraph
module Bitset = Kit.Bitset

let triangle = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]
let path = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ]

(* --- GYO ------------------------------------------------------------------- *)

let gyo_basics () =
  Alcotest.(check bool) "path acyclic" true (Hg.Gyo.is_acyclic path);
  Alcotest.(check bool) "triangle cyclic" false (Hg.Gyo.is_acyclic triangle);
  let star = H.of_int_edges [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ] ] in
  Alcotest.(check bool) "star acyclic" true (Hg.Gyo.is_acyclic star);
  (* The classic alpha-acyclic example containing a "cycle" covered by a
     big edge. *)
  let covered =
    H.of_int_edges [ [ 0; 1; 2 ]; [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]
  in
  Alcotest.(check bool) "covered triangle acyclic" true (Hg.Gyo.is_acyclic covered)

let gyo_duplicates_and_islands () =
  let dup = H.of_int_edges [ [ 0; 1 ]; [ 0; 1 ] ] in
  Alcotest.(check bool) "duplicate edges acyclic" true (Hg.Gyo.is_acyclic dup);
  let islands = H.of_int_edges [ [ 0; 1 ]; [ 2; 3 ]; [ 4; 5; 6 ] ] in
  match Hg.Gyo.reduce islands with
  | Some jt ->
      Alcotest.(check int) "three roots" 3 (List.length jt.Hg.Gyo.roots)
  | None -> Alcotest.fail "islands are acyclic"

let gyo_join_tree_is_hd () =
  (* The Detk k=1 fast path materialises the join tree; it must validate. *)
  let cases =
    [
      path;
      H.of_int_edges [ [ 0; 1; 2; 3 ]; [ 3; 4; 5 ]; [ 5; 6 ]; [ 3; 7 ] ];
      H.of_int_edges [ [ 0; 1 ]; [ 2; 3 ] ];
    ]
  in
  List.iter
    (fun h ->
      match Detk.solve h ~k:1 with
      | Detk.Decomposition d ->
          Alcotest.(check bool) "valid width-1 HD" true (Decomp.check_hd h d = []);
          Alcotest.(check int) "width" 1 (Decomp.width d)
      | _ -> Alcotest.fail "expected acyclic")
    cases

let gyo_agrees_with_search =
  QCheck.Test.make ~name:"GYO agrees with DetKDecomp at k=1" ~count:300
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 7) (list_size (int_range 1 4) (int_bound 8))))
    (fun edges ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (( <> ) []) edges in
      QCheck.assume (edges <> []);
      let h = H.of_int_edges edges in
      let gyo = Hg.Gyo.is_acyclic h in
      let search =
        match Detk.solve ~gyo_fast_path:false h ~k:1 with
        | Detk.Decomposition _ -> true
        | Detk.No_decomposition -> false
        | Detk.Timeout -> gyo (* don't fail on timeouts *)
      in
      gyo = search)

(* --- primal graph / treewidth ------------------------------------------------ *)

let primal_graph () =
  let adj = Hg.Primal.graph triangle in
  Alcotest.(check (list int)) "neighbours of 0" [ 1; 2 ] (Bitset.to_list adj.(0));
  let h = H.of_int_edges [ [ 0; 1; 2 ] ] in
  let adj = Hg.Primal.graph h in
  Alcotest.(check (list int)) "edge makes 1 adjacent to 0 and 2" [ 0; 2 ]
    (Bitset.to_list adj.(1))

let treewidth_known () =
  (* Trees: tw 1. Cycles: tw 2. Cliques: tw n-1. *)
  let check name h expect =
    let ub, order = Hg.Primal.upper_bound h in
    Alcotest.(check int) (name ^ " upper") expect ub;
    Alcotest.(check int) (name ^ " order covers all") h.H.n_vertices
      (List.length order);
    let lb = Hg.Primal.lower_bound h in
    Alcotest.(check bool) (name ^ " lower <= upper") true (lb <= ub)
  in
  check "path" path 1;
  check "triangle" triangle 2;
  let c6 = H.of_int_edges (List.init 6 (fun i -> [ i; (i + 1) mod 6 ])) in
  check "C6" c6 2;
  let k5 =
    H.of_int_edges
      (List.concat_map (fun i -> List.filter_map (fun j -> if j > i then Some [ i; j ] else None) [ 0; 1; 2; 3; 4 ]) [ 0; 1; 2; 3; 4 ])
  in
  check "K5" k5 4;
  Alcotest.(check int) "K5 lower bound exact" 4 (Hg.Primal.lower_bound k5)

let treewidth_heuristics_agree_on_easy () =
  let ub_fill, _ = Hg.Primal.upper_bound ~heuristic:Hg.Primal.Min_fill path in
  let ub_deg, _ = Hg.Primal.upper_bound ~heuristic:Hg.Primal.Min_degree path in
  Alcotest.(check int) "min-fill" 1 ub_fill;
  Alcotest.(check int) "min-degree" 1 ub_deg

let prop_tw_bounds_consistent =
  QCheck.Test.make ~name:"treewidth lower <= upper" ~count:200
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 8) (list_size (int_range 1 4) (int_bound 9))))
    (fun edges ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (( <> ) []) edges in
      QCheck.assume (edges <> []);
      let h = H.of_int_edges edges in
      Hg.Primal.lower_bound h <= fst (Hg.Primal.upper_bound h))

(* --- BMIP variant ---------------------------------------------------------------- *)

let bmip_subedges_smaller_base () =
  (* Two edges overlapping in a large set; a third trims the triple
     intersection down: c=3 yields the small multi-intersections that c=2
     cannot see as single base sets. *)
  let h =
    H.of_int_edges
      [ [ 0; 1; 2; 3; 4; 5 ]; [ 0; 1; 2; 3; 4; 6 ]; [ 0; 1; 7; 8 ] ]
  in
  let sets c =
    (Ghd.Subedges.f_global ~expand_limit:3 ~c h ~k:1).Ghd.Subedges.candidates
    |> List.map (fun (x : Detk.candidate) -> Bitset.to_list x.vertices)
  in
  let s2 = sets 2 and s3 = sets 3 in
  (* c=3 includes the triple intersection {0,1} as a base set. *)
  Alcotest.(check bool) "c=3 has triple intersection" true (List.mem [ 0; 1 ] s3);
  Alcotest.(check bool) "c=3 superset of c=2 bases" true
    (List.for_all (fun s -> List.mem s s3) s2)

let bmip_agrees_with_bip =
  QCheck.Test.make ~name:"GlobalBIP with c=3 agrees with c=2" ~count:80
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 2 5) (list_size (int_range 1 4) (int_bound 6))))
    (fun edges ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (( <> ) []) edges in
      QCheck.assume (List.length edges >= 2);
      let h = H.of_int_edges edges in
      (* GlobalBIP's search over the edges plus f(H,k) built with [c]. *)
      let verdict c =
        let subs = (Ghd.Subedges.f_global ~c h ~k:2).Ghd.Subedges.candidates in
        match
          Detk.solve_gen ~candidates:(Detk.candidates_of_edges h @ subs) h ~k:2
        with
        | Detk.Decomposition _ -> `Yes
        | Detk.No_decomposition -> `No
        | Detk.Timeout -> `Timeout
      in
      verdict 2 = verdict 3)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "gyo",
        [
          Alcotest.test_case "basics" `Quick gyo_basics;
          Alcotest.test_case "duplicates and islands" `Quick gyo_duplicates_and_islands;
          Alcotest.test_case "join tree is an HD" `Quick gyo_join_tree_is_hd;
          qt gyo_agrees_with_search;
        ] );
      ( "treewidth",
        [
          Alcotest.test_case "primal graph" `Quick primal_graph;
          Alcotest.test_case "known widths" `Quick treewidth_known;
          Alcotest.test_case "heuristics" `Quick treewidth_heuristics_agree_on_easy;
          qt prop_tw_bounds_consistent;
        ] );
      ( "bmip",
        [
          Alcotest.test_case "multi-intersection bases" `Quick bmip_subedges_smaller_base;
          qt bmip_agrees_with_bip;
        ] );
    ]
