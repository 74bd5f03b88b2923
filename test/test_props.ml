(* Cross-cutting property tests: structural invariants that tie the
   subsystems together (component partitions, LP duality, rational field
   laws, width inequalities). *)

module H = Hg.Hypergraph
module Bitset = Kit.Bitset
module Rational = Kit.Rational

let hg_gen =
  QCheck.Gen.(
    let* edges =
      list_size (int_range 1 7) (list_size (int_range 1 4) (int_bound 8))
    in
    let edges = List.map (List.sort_uniq compare) edges in
    let edges = List.filter (( <> ) []) edges in
    return (if edges = [] then [ [ 0 ] ] else edges))

(* Components of [within] w.r.t. U partition the non-absorbed edges. *)
let prop_components_partition =
  QCheck.Test.make ~name:"components partition the non-absorbed edges" ~count:200
    (QCheck.make QCheck.Gen.(pair hg_gen (list_size (int_bound 4) (int_bound 8))))
    (fun (edges, u_list) ->
      let h = H.of_int_edges edges in
      let u =
        Bitset.of_list h.H.n_vertices
          (List.filter (fun v -> v < h.H.n_vertices) u_list)
      in
      let comps = Hg.Components.components h ~within:(H.all_edges h) u in
      (* Pairwise disjoint... *)
      let rec pairwise = function
        | [] -> true
        | c :: rest ->
            List.for_all (fun c' -> not (Bitset.intersects c c')) rest
            && pairwise rest
      in
      (* ... and their union is exactly the edges not inside u. *)
      let union = List.fold_left Bitset.union (Bitset.empty h.H.n_edges) comps in
      let expected =
        Bitset.filter
          (fun e -> not (Bitset.subset (H.edge h e) u))
          (H.all_edges h)
      in
      pairwise comps && Bitset.equal union expected)

(* Edges in the same component stay connected when the separator grows
   smaller (monotonicity of [U]-connectedness). *)
let prop_components_monotone =
  QCheck.Test.make ~name:"shrinking U merges components" ~count:150
    (QCheck.make QCheck.Gen.(pair hg_gen (list_size (int_bound 4) (int_bound 8))))
    (fun (edges, u_list) ->
      let h = H.of_int_edges edges in
      let u_big =
        Bitset.of_list h.H.n_vertices
          (List.filter (fun v -> v < h.H.n_vertices) u_list)
      in
      let u_small =
        match Bitset.choose u_big with Some v -> Bitset.remove v u_big | None -> u_big
      in
      let comps_small = Hg.Components.components h ~within:(H.all_edges h) u_small in
      let comps_big = Hg.Components.components h ~within:(H.all_edges h) u_big in
      (* Every big-U component's edges lie within one small-U component or
         are absorbed. *)
      List.for_all
        (fun cb ->
          let hosts =
            List.filter (fun cs -> Bitset.intersects cs cb) comps_small
          in
          List.length hosts <= 1
          ||
          (* edges absorbed under u_small cannot host *)
          false)
        comps_big)

(* ρ* through the packing kernel: the packing value equals the covering
   value (strong duality), lies in [1, |X|], and both certificates hold
   (rho_star checks the float one and rho_star_exact the exact one; each
   raises on failure). *)
let prop_rho_star_duality =
  QCheck.Test.make ~name:"LP strong duality on cover/packing pairs" ~count:100
    (QCheck.make hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      let x = H.vertices_of_edges h (H.all_edges h) in
      let cols = Array.of_list (Bitset.to_list x) in
      let s =
        Lp.pack ~rows:h.H.n_edges ~cols:(Array.length cols) (fun e j ->
            Bitset.mem cols.(j) (H.edge h e))
      in
      let sum = Array.fold_left ( +. ) 0.0 in
      match
        (Fhd.Frac_cover.rho_star h x, Fhd.Frac_cover.rho_star_exact h x)
      with
      | Some c, Some r ->
          let w = c.Fhd.Frac_cover.weight in
          Float.abs (sum s.Lp.y -. sum s.Lp.gamma) < 1e-7
          && Float.abs (w -. s.Lp.value) < 1e-7
          && Float.abs (Rational.to_float r -. w) < 1e-7
          && w >= 1.0 -. 1e-9
          && w <= float_of_int (Array.length cols) +. 1e-9
      | _ -> false)

(* rho* sits between the trivial bounds and matches the LP by duality. *)
let prop_width_chain =
  QCheck.Test.make ~name:"fractional <= integral widths on witnesses" ~count:100
    (QCheck.make hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      match Detk.hypertree_width h with
      | Some (hw, hd), _ ->
          let fw = Fhd.Improve_hd.improved_width h hd in
          fw <= float_of_int hw +. 1e-9 && fw >= 1.0 -. 1e-9
      | None, _ -> true)

(* The width hierarchy across methods on seeded random CSPs, every
   solver under fuel: fhw-upper (FracImproveHD at k = hw) <= each ghw a
   portfolio member decides <= hw (det-k) <= 3·ghw + 1. A member decides
   ghw = g by answering yes at g after exact no's below it; undecided
   widths are skipped, never guessed, but most verdicts must decide. *)
let width_hierarchy () =
  let fuel () = Kit.Deadline.of_fuel 200_000 in
  let decided = ref 0 in
  let check_member seed h hw fhw alg =
    let rec ghw k =
      if k > hw then None
      else
        match Ghd.Portfolio.solve alg ~deadline:(fuel ()) h ~k with
        | { Ghd.Bal_sep.outcome = Detk.Decomposition _; _ } -> Some k
        | { outcome = Detk.No_decomposition; exact = true } -> ghw (k + 1)
        | _ -> None
    in
    match ghw 1 with
    | None -> ()
    | Some g ->
        incr decided;
        let what =
          Printf.sprintf "seed %d %s" seed (Ghd.Portfolio.algorithm_name alg)
        in
        Alcotest.(check bool)
          (what ^ ": fhw-upper <= ghw")
          true
          (fhw <= float_of_int g +. 1e-9);
        Alcotest.(check bool)
          (what ^ ": ghw <= hw <= 3ghw+1")
          true
          (g <= hw && hw <= (3 * g) + 1)
  in
  for seed = 1 to 12 do
    let h =
      Gen.Random_csp.random (Kit.Rng.create seed) ~n_variables:(8 + seed)
        ~n_constraints:(10 + seed) ~max_arity:(2 + (seed mod 3))
    in
    match Detk.hypertree_width ~deadline:(fuel ()) h with
    | None, _ -> ()
    | Some (hw, _), _ -> (
        match Fhd.Frac_improve_hd.best ~deadline:(fuel ()) h ~k:hw with
        | None -> ()
        | Some (_, fhw) ->
            List.iter (check_member seed h hw fhw) Ghd.Portfolio.order)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d member verdicts decided" !decided)
    true (!decided >= 24)

(* Rational arithmetic: sampled field laws. *)
let rational_gen =
  QCheck.Gen.(
    let* num = int_range (-50) 50 in
    let* den = int_range 1 20 in
    return (Rational.make num den))

let prop_rational_laws =
  QCheck.Test.make ~name:"rational field laws" ~count:300
    (QCheck.make QCheck.Gen.(triple rational_gen rational_gen rational_gen))
    (fun (a, b, c) ->
      let open Rational in
      equal (add a b) (add b a)
      && equal (mul a b) (mul b a)
      && equal (add (add a b) c) (add a (add b c))
      && equal (mul (mul a b) c) (mul a (mul b c))
      && equal (mul a (add b c)) (add (mul a b) (mul a c))
      && equal (sub (add a b) b) a
      && (equal b zero || equal (div (mul a b) b) a))

let prop_rational_compare_total =
  QCheck.Test.make ~name:"rational compare is a total order" ~count:300
    (QCheck.make QCheck.Gen.(triple rational_gen rational_gen rational_gen))
    (fun (a, b, c) ->
      let open Rational in
      (compare a b = -compare b a)
      && ((not (compare a b <= 0 && compare b c <= 0)) || compare a c <= 0)
      && Float.abs (to_float (sub a b)) < 1e-12 = (compare a b = 0))

(* GYO vs treewidth: acyclic hypergraphs have primal treewidth
   <= arity - 1 (each edge is a clique; join-tree bags are edges). *)
let prop_acyclic_tw_bound =
  QCheck.Test.make ~name:"acyclic implies tw <= arity - 1" ~count:150
    (QCheck.make hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      if Hg.Gyo.is_acyclic h then
        fst (Hg.Primal.upper_bound h) <= Stdlib.max 1 (H.arity h) - 1
        || fst (Hg.Primal.upper_bound h) <= H.arity h - 1
      else true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "props"
    [
      ( "components",
        [ qt prop_components_partition; qt prop_components_monotone ] );
      ( "lp", [ qt prop_rho_star_duality ] );
      ( "widths",
        [
          qt prop_width_chain;
          qt prop_acyclic_tw_bound;
          Alcotest.test_case "hierarchy across methods under fuel" `Quick
            width_hierarchy;
        ] );
      ( "rational",
        [ qt prop_rational_laws; qt prop_rational_compare_total ] );
    ]
