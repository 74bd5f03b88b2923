(* The SQL-to-hypergraph pipeline on a realistic decision-support workload
   (paper §5.2-5.4): parse TPC-H-shaped queries, extract their simple
   conjunctive queries (splitting set operations, expanding views,
   discarding correlated subqueries), convert each to a hypergraph, and
   report structural properties and hypertree widths.

   Run with: dune exec examples/sql_pipeline.exe *)

let () =
  let schema = Gen.Workloads.tpch_schema in
  List.iter
    (fun (name, sql) ->
      Printf.printf "=== %s ===\n" name;
      match Sql.Convert.sql_to_hypergraphs_report ~schema sql with
      | Error ds ->
          Printf.printf "  parse error: %s\n" (Kit.Diag.to_message ~source:sql ds)
      | Ok results ->
          List.iter
            (fun (id, conv) ->
              List.iter (Printf.printf "  [%s]\n") conv.Sql.Convert.warnings;
              match conv.Sql.Convert.hypergraph with
              | None -> Printf.printf "  %s: no hypergraph\n" id
              | Some h ->
                  let p = Hg.Properties.profile h in
                  let hw =
                    match Detk.hypertree_width ~max_k:5 h with
                    | Some (k, _), _ -> string_of_int k
                    | None, k -> Printf.sprintf ">= %d?" k
                  in
                  Printf.printf
                    "  %s: %d atoms, %d variables, arity %d, bip %d, hw %s\n" id
                    h.Hg.Hypergraph.n_edges h.Hg.Hypergraph.n_vertices
                    p.Hg.Properties.arity p.Hg.Properties.bip hw)
            results)
    Gen.Workloads.tpch_queries;
  (* One cyclic JOB-style query end to end, with the decomposition shown. *)
  print_endline "\n=== JOB-style cyclic query ===";
  let cyclic = List.assoc "job_cyclic" Gen.Workloads.job_queries in
  match
    Sql.Convert.sql_to_hypergraphs_report ~schema:Gen.Workloads.job_schema
      cyclic
  with
  | Error ds ->
      Printf.printf "parse error: %s\n" (Kit.Diag.to_message ~source:cyclic ds)
  | Ok [ (_, conv) ] | Ok ((_, conv) :: _) -> (
      match conv.Sql.Convert.hypergraph with
      | Some h -> (
          print_string (Hg.Hypergraph.to_string h);
          match Detk.hypertree_width h with
          | Some (hw, hd), _ ->
              Printf.printf "hw = %d\n" hw;
              Format.printf "%a@." (fun fmt -> Decomp.pp h fmt) hd
          | None, _ -> print_endline "hw: open")
      | None -> print_endline "no hypergraph")
  | Ok [] -> print_endline "no queries extracted"
