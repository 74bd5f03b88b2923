(* Tests for the workload generators and the repository assembly. *)

module H = Hg.Hypergraph

let rng () = Kit.Rng.create 123

let hw h =
  match Detk.hypertree_width ~max_k:8 h with
  | Some (k, _), _ -> Some k
  | None, _ -> None

let chain_acyclic () =
  let g = rng () in
  for _ = 1 to 10 do
    let h = Gen.Random_cq.chain g ~n_edges:6 ~arity:4 in
    Alcotest.(check (option int)) "chain hw 1" (Some 1) (hw h);
    Alcotest.(check int) "edge count" 6 h.H.n_edges
  done

let star_acyclic () =
  let g = rng () in
  let h = Gen.Random_cq.star g ~n_edges:5 ~arity:3 in
  Alcotest.(check (option int)) "star hw 1" (Some 1) (hw h);
  Alcotest.(check int) "edges" 5 h.H.n_edges;
  (* All edges share the centre. *)
  let centre = Kit.Bitset.of_list h.H.n_vertices [ 0 ] in
  Array.iter
    (fun e -> Alcotest.(check bool) "centre" true (Kit.Bitset.intersects e centre))
    h.H.edges

let random_bounds () =
  let g = rng () in
  for _ = 1 to 20 do
    let h = Gen.Random_cq.random g ~n_vertices:20 ~n_edges:10 ~max_arity:5 in
    Alcotest.(check bool) "vertices bound" true (h.H.n_vertices <= 20);
    Alcotest.(check int) "edges" 10 h.H.n_edges;
    Alcotest.(check bool) "arity bound" true (H.arity h <= 5);
    (* No isolated vertices by construction. *)
    Array.iter
      (fun inc -> Alcotest.(check bool) "no isolated" false (Kit.Bitset.is_empty inc))
      h.H.incidence
  done

let generators_deterministic () =
  let draw () =
    Gen.Random_cq.random (Kit.Rng.create 9) ~n_vertices:40 ~n_edges:20
      ~max_arity:10
  in
  let h1 = draw () and h2 = draw () in
  Alcotest.(check bool) "same seed same hypergraph" true (H.equal_structure h1 h2)

let grid_widths () =
  (* Pebbling grids are the hard family: width grows with the side. *)
  let g33 = Gen.Structured.grid ~rows:3 ~cols:3 in
  let g44 = Gen.Structured.grid ~rows:4 ~cols:4 in
  Alcotest.(check int) "3x3 has 4 edges" 4 g33.H.n_edges;
  Alcotest.(check int) "4x4 has 9 edges" 9 g44.H.n_edges;
  let w33 = Option.get (hw g33) and w44 = Option.get (hw g44) in
  Alcotest.(check bool) "monotone width" true (w33 <= w44);
  Alcotest.(check bool) "4x4 cyclic" true (w44 >= 2)

let circuit_shape () =
  let h = Gen.Structured.circuit (rng ()) ~n_gates:20 ~n_inputs:4 in
  Alcotest.(check bool) "edges present" true (h.H.n_edges > 0);
  Alcotest.(check bool) "arity <= 3" true (H.arity h <= 3)

let configuration_shape () =
  let h = Gen.Structured.configuration (rng ()) ~n_clusters:4 ~cluster_size:5 ~backbone:3 in
  Alcotest.(check bool) "wide arity" true (H.arity h >= 6);
  (* Low intersection sizes: the Daimler-like profile of Table 2. *)
  Alcotest.(check bool) "small bip" true (Hg.Properties.intersection_size h <= 3)

let scheduling_cyclic () =
  let h = Gen.Structured.scheduling (rng ()) ~jobs:4 ~machines:4 in
  match hw h with
  | Some w -> Alcotest.(check bool) "cyclic" true (w >= 2)
  | None -> Alcotest.fail "width should be found"

let coloring_binary () =
  let h = Gen.Structured.coloring (rng ()) ~n_vertices:12 ~avg_degree:3.0 in
  Alcotest.(check int) "binary edges" 2 (H.arity h);
  Alcotest.(check bool) "connected" true (Hg.Components.connected h)

let sparql_cyclic () =
  let g = rng () in
  List.iter
    (fun shape ->
      for _ = 1 to 5 do
        let h = Gen.Sparql_gen.generate g shape in
        Alcotest.(check bool) "arity <= 3" true (H.arity h <= 3);
        match hw h with
        | Some w -> Alcotest.(check bool) "hw >= 2" true (w >= 2)
        | None -> Alcotest.fail "hw should be small"
      done)
    [ Gen.Sparql_gen.Cycle; Gen.Sparql_gen.Theta; Gen.Sparql_gen.Flower;
      Gen.Sparql_gen.Double_cycle; Gen.Sparql_gen.Clique ]

let acyclic_families () =
  let g = rng () in
  List.iter
    (fun (name, gen) ->
      for _ = 1 to 5 do
        let h = gen g in
        Alcotest.(check (option int)) (name ^ " acyclic") (Some 1) (hw h)
      done)
    [ ("deep", Gen.Workloads.deep); ("ibench", Gen.Workloads.ibench);
      ("doctors", Gen.Workloads.doctors) ]

let tpch_pipeline () =
  let results =
    Gen.Workloads.convert_workload Gen.Workloads.tpch_schema Gen.Workloads.tpch_queries
  in
  (* Every embedded query yields at least one hypergraph; q2 and q18 yield
     two (an uncorrelated subquery each). *)
  Alcotest.(check bool) "at least 10 hypergraphs" true (List.length results >= 10);
  List.iter
    (fun (name, h) ->
      Alcotest.(check bool) (name ^ " nonempty") true (h.H.n_edges >= 1);
      match hw h with
      | Some w -> Alcotest.(check bool) (name ^ " low hw") true (w <= 3)
      | None -> Alcotest.failf "%s: hw should be found" name)
    results

let job_cyclic_instance () =
  let results =
    Gen.Workloads.convert_workload Gen.Workloads.job_schema Gen.Workloads.job_queries
  in
  let name, h =
    List.find (fun (n, _) -> String.length n >= 10 && String.sub n 0 10 = "job_cyclic") results
  in
  match hw h with
  | Some w -> Alcotest.(check int) (name ^ " hw") 2 w
  | None -> Alcotest.fail "job_cyclic hw"

let () =
  Alcotest.run "gen"
    [
      ( "random cq",
        [
          Alcotest.test_case "chain" `Quick chain_acyclic;
          Alcotest.test_case "star" `Quick star_acyclic;
          Alcotest.test_case "random bounds" `Quick random_bounds;
          Alcotest.test_case "deterministic" `Quick generators_deterministic;
        ] );
      ( "structured",
        [
          Alcotest.test_case "grids" `Quick grid_widths;
          Alcotest.test_case "circuit" `Quick circuit_shape;
          Alcotest.test_case "configuration" `Quick configuration_shape;
          Alcotest.test_case "scheduling" `Quick scheduling_cyclic;
          Alcotest.test_case "coloring" `Quick coloring_binary;
        ] );
      ( "sparql", [ Alcotest.test_case "cyclic shapes" `Quick sparql_cyclic ] );
      ( "workloads",
        [
          Alcotest.test_case "acyclic families" `Quick acyclic_families;
          Alcotest.test_case "tpch pipeline" `Quick tpch_pipeline;
          Alcotest.test_case "job cyclic" `Quick job_cyclic_instance;
        ] );
    ]
