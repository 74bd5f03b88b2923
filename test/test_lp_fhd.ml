(* Tests for the packing LP kernel and fractional covers / fractionally
   improved decompositions. *)

module Bitset = Kit.Bitset
module H = Hg.Hypergraph

let feq = Alcotest.float 1e-6

(* --- fractional covers --------------------------------------------------- *)

let triangle = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]

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

let rho_star_triangle () =
  match Fhd.Frac_cover.rho_star triangle (Bitset.full 3) with
  | Some c ->
      Alcotest.check feq "rho* = 3/2" 1.5 c.Fhd.Frac_cover.weight;
      Alcotest.(check bool)
        "verified" true
        (Fhd.Frac_cover.verify triangle (Bitset.full 3) c)
  | None -> Alcotest.fail "coverable"

let rho_star_fano () =
  match Fhd.Frac_cover.rho_star fano (Bitset.full 7) with
  | Some c -> Alcotest.check feq "rho*(fano) = 7/3" (7.0 /. 3.0) c.Fhd.Frac_cover.weight
  | None -> Alcotest.fail "coverable"

let rho_star_exact_values () =
  (match Fhd.Frac_cover.rho_star_exact triangle (Bitset.full 3) with
  | Some r -> Alcotest.(check string) "3/2" "3/2" (Kit.Rational.to_string r)
  | None -> Alcotest.fail "exact triangle");
  match Fhd.Frac_cover.rho_star_exact fano (Bitset.full 7) with
  | Some r -> Alcotest.(check string) "7/3" "7/3" (Kit.Rational.to_string r)
  | None -> Alcotest.fail "exact fano"

let rho_star_subset () =
  (* Covering only one vertex costs 1. *)
  match Fhd.Frac_cover.rho_star triangle (Bitset.of_list 3 [ 0 ]) with
  | Some c -> Alcotest.check feq "single vertex" 1.0 c.Fhd.Frac_cover.weight
  | None -> Alcotest.fail "coverable"

let rho_star_empty () =
  match Fhd.Frac_cover.rho_star triangle (Bitset.empty 3) with
  | Some c -> Alcotest.check feq "empty set" 0.0 c.Fhd.Frac_cover.weight
  | None -> Alcotest.fail "empty is coverable"

let rho_star_restricted_edges () =
  (* Restrict candidates to edge 0 = {0,1}: vertex 2 becomes uncoverable. *)
  match
    Fhd.Frac_cover.rho_star ~edges:(Bitset.of_list 3 [ 0 ]) triangle (Bitset.full 3)
  with
  | None -> ()
  | Some _ -> Alcotest.fail "vertex 2 is not coverable by edge 0"

(* --- packing kernel ---------------------------------------------------- *)

let k4 =
  H.of_int_edges [ [ 0; 1 ]; [ 0; 2 ]; [ 0; 3 ]; [ 1; 2 ]; [ 1; 3 ]; [ 2; 3 ] ]

(* Duplicate edges tie every ratio test: Bland's tie-break on the basic
   index must still reach the optimum. *)
let degenerate =
  H.of_int_edges [ [ 0; 1 ]; [ 0; 1 ]; [ 1; 2 ]; [ 1; 2 ]; [ 2; 0 ]; [ 2; 0 ] ]

(* Solves the packing LP of ρ*(X) with [Lp.pack] directly and re-checks
   its certificate here, independently of [Fhd]: γ >= 0 covers X, y >= 0
   packs every candidate edge and Σγ = Σy. The value must equal both
   [rho_star] and the exactly certified [rho_star_exact]. *)
let kernel_case ?edges h x expect () =
  let pool = Option.value edges ~default:(H.all_edges h) in
  let rows =
    Array.of_list (Bitset.to_list (Bitset.inter pool (H.edges_touching h x)))
  in
  let cols = Array.of_list (Bitset.to_list x) in
  let inc i j = Bitset.mem cols.(j) (H.edge h rows.(i)) in
  let s = Lp.pack ~rows:(Array.length rows) ~cols:(Array.length cols) inc in
  let sum = Array.fold_left ( +. ) 0.0 in
  Alcotest.check feq "value = sum gamma" s.Lp.value (sum s.Lp.gamma);
  Alcotest.check feq "value = sum y" s.Lp.value (sum s.Lp.y);
  let nonneg = Array.for_all (fun w -> w >= 0.0) in
  Alcotest.(check bool)
    "gamma, y >= 0" true
    (nonneg s.Lp.gamma && nonneg s.Lp.y);
  Array.iteri
    (fun j v ->
      let cover = ref 0.0 in
      Array.iteri (fun i g -> if inc i j then cover := !cover +. g) s.Lp.gamma;
      Alcotest.(check bool)
        (Printf.sprintf "vertex %d covered" v)
        true
        (!cover >= 1.0 -. 1e-9))
    cols;
  Array.iteri
    (fun i e ->
      let load = ref 0.0 in
      Array.iteri (fun j w -> if inc i j then load := !load +. w) s.Lp.y;
      Alcotest.(check bool)
        (Printf.sprintf "edge %d packed" e)
        true
        (!load <= 1.0 +. 1e-9))
    rows;
  (match Fhd.Frac_cover.rho_star ?edges h x with
  | Some c -> Alcotest.check feq "rho_star" s.Lp.value c.Fhd.Frac_cover.weight
  | None -> Alcotest.fail "coverable");
  match Fhd.Frac_cover.rho_star_exact ?edges h x with
  | Some r ->
      Alcotest.(check string) "exact" expect (Kit.Rational.to_string r);
      Alcotest.check feq "exact = float" (Kit.Rational.to_float r) s.Lp.value
  | None -> Alcotest.fail "exact: coverable"

let kernel_unbounded () =
  (* A column in no row: the packing is unbounded, which rho_star rules
     out before solving. *)
  Alcotest.check_raises "column meets no row"
    (Invalid_argument "Lp.pack: a column meets no row") (fun () ->
      ignore (Lp.pack ~rows:1 ~cols:2 (fun _ j -> j = 0)))

let kernel_uncoverable () =
  (* An uncoverable X is answered before any LP is built. *)
  let edges = Bitset.of_list 3 [ 0 ] and x = Bitset.full 3 in
  Kit.Metrics.reset ();
  Kit.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Kit.Metrics.enabled := false;
      Kit.Metrics.reset ())
    (fun () ->
      Alcotest.(check bool) "None" true
        (Fhd.Frac_cover.rho_star ~edges triangle x = None);
      Alcotest.(check bool) "exact None" true
        (Fhd.Frac_cover.rho_star_exact ~edges triangle x = None);
      Alcotest.(check int) "no solve" 0
        (Kit.Metrics.get (Kit.Metrics.snapshot ()) "lp.solves"))

let prop_rho_star_bounds =
  (* 1 <= rho*(X) <= |X| for nonempty coverable X; and rho* is monotone
     under taking subsets of X. *)
  QCheck.Test.make ~name:"rho* within bounds and verified" ~count:100
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 7) (list_size (int_range 1 4) (int_bound 7))))
    (fun edges ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (( <> ) []) edges in
      QCheck.assume (edges <> []);
      let h = H.of_int_edges edges in
      (* Only vertices that occur in edges: of_int_edges may leave holes in
         the id range, and isolated ids are legitimately uncoverable. *)
      let x = H.vertices_of_edges h (H.all_edges h) in
      match Fhd.Frac_cover.rho_star h x with
      | None -> false (* every used vertex is in some edge *)
      | Some c ->
          c.Fhd.Frac_cover.weight >= 1.0 -. 1e-6
          && c.Fhd.Frac_cover.weight <= float_of_int (Bitset.cardinal x) +. 1e-6
          && Fhd.Frac_cover.verify h x c)

(* The bounds that gate the ρ* memo of FracImproveHD: no edge holds two
   packed vertices, the greedy cover covers the bag, and packing size
   <= ρ* <= cover size. Bags may hold isolated ids (holes left by
   of_int_edges), which no edge covers. *)
let prop_greedy_bounds =
  QCheck.Test.make ~name:"greedy packing <= rho* <= greedy cover" ~count:300
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 9) (list_size (int_range 1 5) (int_bound 11)))
           (list_size (int_range 1 8) (int_bound 11))))
    (fun (edges, bag) ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (( <> ) []) edges in
      QCheck.assume (edges <> []);
      let h = H.of_int_edges edges in
      let x =
        Bitset.of_list h.H.n_vertices
          (List.filter (fun v -> v < h.H.n_vertices) bag)
      in
      let packing = Fhd.Frac_cover.greedy_packing h x in
      let non_adjacent =
        Bitset.subset packing x
        && Array.for_all (fun e -> Bitset.inter_cardinal e packing <= 1) h.H.edges
      in
      non_adjacent
      &&
      match (Fhd.Frac_cover.greedy_cover h x, Fhd.Frac_cover.rho_star h x) with
      | None, None -> true
      | Some cover, Some c ->
          let covered =
            List.fold_left
              (fun acc e -> Bitset.union acc (H.edge h e))
              (Bitset.empty h.H.n_vertices) cover
          in
          Bitset.subset x covered
          && float (Bitset.cardinal packing) <= c.Fhd.Frac_cover.weight +. 1e-6
          && c.Fhd.Frac_cover.weight <= float (List.length cover) +. 1e-6
      | _ -> false)

(* --- ImproveHD / FracImproveHD ------------------------------------------ *)

let improve_hd_triangle () =
  match Detk.solve triangle ~k:2 with
  | Detk.Decomposition d ->
      let fhd = Fhd.Improve_hd.improve triangle d in
      Alcotest.check feq "width 1.5" 1.5 (Decomp.Fractional.width fhd);
      Alcotest.(check bool)
        "valid FHD" true
        (Decomp.Fractional.check_fhd triangle fhd = [])
  | _ -> Alcotest.fail "triangle has hw 2"

let improve_hd_never_worse =
  QCheck.Test.make ~name:"ImproveHD never increases width" ~count:80
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 1 6) (list_size (int_range 1 4) (int_bound 6))))
    (fun edges ->
      let edges = List.map (List.sort_uniq compare) edges in
      let edges = List.filter (( <> ) []) edges in
      QCheck.assume (edges <> []);
      let h = H.of_int_edges edges in
      match Detk.hypertree_width h with
      | Some (hw, d), _ ->
          let fhd = Fhd.Improve_hd.improve h d in
          Decomp.Fractional.width fhd <= float_of_int hw +. 1e-6
          && Decomp.Fractional.check_fhd h fhd = []
      | None, _ -> true)

let frac_improve_check () =
  (* The triangle has an HD of width 2 whose bags have rho* <= 1.5. *)
  (match Fhd.Frac_improve_hd.check triangle ~k:2 ~k':1.5 with
  | Fhd.Frac_improve_hd.Improved (fhd, w) ->
      Alcotest.check feq "achieved width" 1.5 w;
      Alcotest.(check bool)
        "valid" true
        (Decomp.Fractional.check_fhd triangle fhd = [])
  | _ -> Alcotest.fail "expected improvement");
  (* ... but none with rho* <= 1.4. *)
  match Fhd.Frac_improve_hd.check triangle ~k:2 ~k':1.4 with
  | Fhd.Frac_improve_hd.No_improvement -> ()
  | _ -> Alcotest.fail "1.4 must be impossible"

let frac_improve_best () =
  match Fhd.Frac_improve_hd.best triangle ~k:2 with
  | Some (_, w) -> Alcotest.check feq "best = 1.5" 1.5 w
  | None -> Alcotest.fail "expected a result"

let frac_improve_acyclic () =
  (* Acyclic instance: integral width 1 cannot be fractionally improved. *)
  let path = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ] ] in
  match Fhd.Frac_improve_hd.best path ~k:1 with
  | Some (_, w) -> Alcotest.check feq "width 1" 1.0 w
  | None -> Alcotest.fail "expected a result"

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "lp_fhd"
    [
      ( "kernel",
        [
          Alcotest.test_case "triangle 3/2" `Quick
            (kernel_case triangle (Bitset.full 3) "3/2");
          Alcotest.test_case "fano 7/3" `Quick
            (kernel_case fano (Bitset.full 7) "7/3");
          Alcotest.test_case "K4 2" `Quick (kernel_case k4 (Bitset.full 4) "2");
          Alcotest.test_case "single vertex" `Quick
            (kernel_case triangle (Bitset.of_list 3 [ 0 ]) "1");
          Alcotest.test_case "restricted edges" `Quick
            (kernel_case ~edges:(Bitset.of_list 3 [ 0; 1 ]) triangle
               (Bitset.full 3) "2");
          Alcotest.test_case "degenerate" `Quick
            (kernel_case degenerate (Bitset.full 3) "3/2");
          Alcotest.test_case "unbounded column" `Quick kernel_unbounded;
          Alcotest.test_case "uncoverable X without a solve" `Quick
            kernel_uncoverable;
        ] );
      ( "frac_cover",
        [
          Alcotest.test_case "triangle 3/2" `Quick rho_star_triangle;
          Alcotest.test_case "fano 7/3" `Quick rho_star_fano;
          Alcotest.test_case "exact rationals" `Quick rho_star_exact_values;
          Alcotest.test_case "subset" `Quick rho_star_subset;
          Alcotest.test_case "empty" `Quick rho_star_empty;
          Alcotest.test_case "restricted edges" `Quick rho_star_restricted_edges;
          qt prop_rho_star_bounds;
          qt prop_greedy_bounds;
        ] );
      ( "improve",
        [
          Alcotest.test_case "ImproveHD triangle" `Quick improve_hd_triangle;
          qt improve_hd_never_worse;
          Alcotest.test_case "FracImproveHD check" `Quick frac_improve_check;
          Alcotest.test_case "FracImproveHD best" `Quick frac_improve_best;
          Alcotest.test_case "acyclic no improvement" `Quick frac_improve_acyclic;
        ] );
    ]
