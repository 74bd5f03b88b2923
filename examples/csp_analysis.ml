(* CSP analysis in the style of the paper's empirical study (§5.5, §6.1):
   generate CSP instances, serialise them through the XCSP format (so the
   XML reader is part of the loop, exactly like the paper's use of the
   XCSP3 parser), and analyse structural properties and hypertree width.

   Run with: dune exec examples/csp_analysis.exe *)

let analyze name h =
  let p = Hg.Properties.profile h in
  let hw =
    match Detk.hypertree_width ~deadline:(Kit.Deadline.of_seconds 2.0) ~max_k:6 h with
    | Some (k, _), _ -> string_of_int k
    | None, k -> Printf.sprintf "? (open at %d)" k
    | exception Kit.Deadline.Timed_out -> "timeout"
  in
  Printf.printf "%-22s %4d vars %4d cons  deg=%-3d bip=%-2d vc=%-2s hw=%s\n" name
    p.Hg.Properties.vertices p.Hg.Properties.edges p.Hg.Properties.degree
    p.Hg.Properties.bip
    (match p.Hg.Properties.vc_dim with Some v -> string_of_int v | None -> "?")
    hw

let roundtrip name h =
  (* Serialise to XCSP and read back: the analysis below runs on the
     parsed instance, not the original. *)
  let xml = Xcsp3.Xcsp.to_xml ~name h in
  match Xcsp3.Xcsp.read_report xml with
  | Ok h' ->
      assert (Hg.Hypergraph.equal_structure h h');
      analyze name h'
  | Error ds ->
      Printf.printf "%s: XCSP round-trip failed: %s\n" name
        (Kit.Diag.to_message ~source:xml ds)

let () =
  let rng = Kit.Rng.create 42 in
  print_endline "Structured CSPs (application-like):";
  roundtrip "scheduling-4x4" (Gen.Structured.scheduling rng ~jobs:4 ~machines:4);
  roundtrip "coloring-15" (Gen.Structured.coloring rng ~n_vertices:15 ~avg_degree:3.0);
  roundtrip "config-5x5" (Gen.Structured.configuration rng ~n_clusters:5 ~cluster_size:5 ~backbone:3);
  roundtrip "circuit-25" (Gen.Structured.circuit rng ~n_gates:25 ~n_inputs:5);
  print_endline "\nHard instances (CSP Other):";
  roundtrip "grid-4x4" (Gen.Structured.grid ~rows:4 ~cols:4);
  roundtrip "grid-5x5" (Gen.Structured.grid ~rows:5 ~cols:5);
  print_endline "\nRandom CSPs:";
  for i = 1 to 4 do
    roundtrip (Printf.sprintf "random-%d" i) (Gen.Random_csp.typical rng)
  done
