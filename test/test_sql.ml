(* Tests for the SQL-to-hypergraph pipeline, built around the paper's own
   example queries (§5.2-5.4, Listings 1-3). *)

module H = Hg.Hypergraph

let tab_schema = Sql.Schema.of_list [ ("tab", [ "a"; "b"; "c" ]) ]

let convert ?(schema = tab_schema) src =
  match Sql.Convert.sql_to_hypergraphs_report ~schema src with
  | Error ds ->
      Alcotest.failf "parse failed: %s" (Kit.Diag.to_message ~source:src ds)
  | Ok results -> results

let hypergraph_of conv =
  match conv.Sql.Convert.hypergraph with
  | Some h -> h
  | None -> Alcotest.fail "expected a hypergraph"

(* Listing 1: the conjunctive core keeps the join, drops the comparison
   with a constant (>) and the disequality. *)
let query1 () =
  let results =
    convert
      {| SELECT * FROM tab t1, tab t2
         WHERE t1.a = t2.a AND t1.b > 5 AND t1.c <> t2.c; |}
  in
  Alcotest.(check int) "one simple query" 1 (List.length results);
  let h = hypergraph_of (snd (List.hd results)) in
  Alcotest.(check int) "two edges" 2 h.H.n_edges;
  (* 6 attribute vertices, one merge (t1.a = t2.a). *)
  Alcotest.(check int) "five vertices" 5 h.H.n_vertices;
  Alcotest.(check int) "edges share exactly the join vertex" 1
    (Kit.Bitset.inter_cardinal (H.edge h 0) (H.edge h 1));
  Alcotest.(check int) "arity 3" 3 (H.arity h)

(* Listing 2: the IN-subquery is extracted separately; the correlated
   EXISTS subquery is discarded (cycle in the dependency graph). *)
let query2 () =
  let results =
    convert
      {| SELECT * FROM tab t1, tab t2
         WHERE t1.a = t2.a
         AND t1.b IN (SELECT tab.b FROM tab WHERE tab.c = 'ok')
         AND EXISTS (SELECT * FROM differentTable dt WHERE dt.a = t1.a); |}
  in
  (* Main query + the one uncorrelated subquery. *)
  Alcotest.(check int) "two simple queries" 2 (List.length results);
  let ids = List.map fst results in
  Alcotest.(check bool) "main query present" true (List.mem "q" ids);
  Alcotest.(check bool) "subquery present" true (List.mem "q.sub1" ids);
  (* The correlated subquery must be reported dropped. *)
  let main = List.assoc "q" results in
  Alcotest.(check bool) "correlated drop warned" true
    (List.exists
       (fun w ->
         let re = Str.regexp_string "correlated" in
         try ignore (Str.search_forward re w 0); true with Not_found -> false)
       main.Sql.Convert.warnings);
  (* Subquery hypergraph: single tab edge with c removed (constant). *)
  let sub = hypergraph_of (List.assoc "q.sub1" results) in
  Alcotest.(check int) "subquery edges" 1 sub.H.n_edges;
  Alcotest.(check int) "subquery vertices (c removed)" 2 sub.H.n_vertices

(* Listing 3: view expansion creates the combined hypergraph of Figure 2:
   4 edges of arity 3, 7 vertices after the 5 merges, and it is cyclic. *)
let query3 () =
  let results =
    convert
      {| WITH crossView AS (
           SELECT t1.a a1, t1.c c1, t2.a a2, t2.c c2
           FROM tab t1, tab t2
           WHERE t1.b = t2.b )
         SELECT *
         FROM tab t1, tab t2, crossView cr
         WHERE t1.a = cr.a1 AND t1.c = cr.a2 AND t2.a = cr.c1 AND t2.c = cr.c2; |}
  in
  Alcotest.(check int) "one simple query" 1 (List.length results);
  let h = hypergraph_of (snd (List.hd results)) in
  Alcotest.(check int) "four edges" 4 h.H.n_edges;
  Alcotest.(check int) "seven vertices" 7 h.H.n_vertices;
  Alcotest.(check int) "arity 3" 3 (H.arity h);
  (* The combined query is cyclic: hw = 2. *)
  (match Detk.solve h ~k:1 with
  | Detk.No_decomposition -> ()
  | _ -> Alcotest.fail "expected cyclic (hw > 1)");
  match Detk.solve h ~k:2 with
  | Detk.Decomposition d ->
      Alcotest.(check bool) "valid" true (Decomp.check_hd h d = [])
  | _ -> Alcotest.fail "expected hw = 2"

let setop_split () =
  let results =
    convert
      {| SELECT * FROM tab t1, tab t2 WHERE t1.a = t2.a
         UNION
         SELECT * FROM tab t3, tab t4 WHERE t3.b = t4.b; |}
  in
  Alcotest.(check int) "two operand queries" 2 (List.length results);
  List.iter
    (fun (_, conv) ->
      let h = hypergraph_of conv in
      Alcotest.(check int) "two edges each" 2 h.H.n_edges)
    results

let join_on_syntax () =
  let results =
    convert
      {| SELECT t1.a FROM tab t1 JOIN tab t2 ON t1.a = t2.a
         LEFT OUTER JOIN tab t3 ON t2.b = t3.b; |}
  in
  let h = hypergraph_of (snd (List.hd results)) in
  Alcotest.(check int) "three edges" 3 h.H.n_edges;
  (* chain t1 - t2 - t3: acyclic *)
  match Detk.solve h ~k:1 with
  | Detk.Decomposition _ -> ()
  | _ -> Alcotest.fail "join chain should be acyclic"

let or_conditions_dropped () =
  let results =
    convert
      {| SELECT * FROM tab t1, tab t2
         WHERE (t1.a = t2.a OR t1.b = t2.b) AND t1.c = t2.c; |}
  in
  let h = hypergraph_of (snd (List.hd results)) in
  (* Only the top-level conjunct t1.c = t2.c merges; the OR is dropped. *)
  Alcotest.(check int) "one merge only" 5 h.H.n_vertices

let constant_deletion_propagates () =
  (* a = const and a = b deletes the whole class {a, b}. *)
  let results =
    convert
      {| SELECT * FROM tab t1, tab t2 WHERE t1.a = t2.a AND t2.a = 1; |}
  in
  let h = hypergraph_of (snd (List.hd results)) in
  (* t1: {b,c}, t2: {b,c}; disjoint after the class deletion. *)
  Alcotest.(check int) "four vertices" 4 h.H.n_vertices;
  Alcotest.(check int) "no shared vertices" 0
    (Kit.Bitset.inter_cardinal (H.edge h 0) (H.edge h 1))

let duplicate_edges_dropped () =
  let results =
    convert {| SELECT * FROM tab t1, tab t2 WHERE t1.a = t2.a AND t1.b = t2.b AND t1.c = t2.c; |}
  in
  let h = hypergraph_of (snd (List.hd results)) in
  Alcotest.(check int) "identical instances collapse" 1 h.H.n_edges

let schemaless_inference () =
  (* Without a schema, attributes are the referenced columns. *)
  let results =
    convert ~schema:Sql.Schema.empty
      {| SELECT r.u FROM r, s WHERE r.x = s.y AND s.w = r.u; |}
  in
  let h = hypergraph_of (snd (List.hd results)) in
  (* r = {u, x}, s = {y~x, w~u}: both classes shared, but r and s remain
     distinct edges only through their referenced columns; here they merge
     to the same member set, so dedup must collapse them. *)
  Alcotest.(check int) "edges collapse" 1 h.H.n_edges;
  Alcotest.(check int) "two merged classes" 2 h.H.n_vertices;
  (* A query where the two relations keep distinct attribute sets. *)
  let results =
    convert ~schema:Sql.Schema.empty
      {| SELECT r.u FROM r, s WHERE r.x = s.y AND r.z > 1 AND s.v IS NOT NULL; |}
  in
  let h = hypergraph_of (snd (List.hd results)) in
  Alcotest.(check int) "two edges" 2 h.H.n_edges;
  (* r = {u, x, z}, s = {x (merged), v}: classes u, x~y, z, v. *)
  Alcotest.(check int) "four vertices" 4 h.H.n_vertices

let parse_errors () =
  (match Sql.Parser.parse_report "SELECT FROM WHERE" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage should fail");
  (match Sql.Parser.parse_report "SELECT * FROM t WHERE a =" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated should fail");
  match Sql.Parser.parse_report "SELECT * FROM t; leftover" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing should fail"

let lexer_features () =
  (match Sql.Lexer.create "SELECT 'it''s' -- comment\n /* block */ x" with
  | Error d -> Alcotest.fail d.Kit.Diag.message
  | Ok (l, diags) ->
      Alcotest.(check int) "no diagnostics" 0 (List.length diags);
      let rec all acc =
        match Sql.Lexer.next l with
        | Sql.Lexer.Eof -> List.rev acc
        | t -> all (t :: acc)
      in
      Alcotest.(check int) "three tokens" 3 (List.length (all [])));
  (* The lexer recovers from an unterminated string: the statement still
     tokenizes, with one diagnostic pointing at the opening quote. *)
  match Sql.Lexer.create "SELECT 'unterminated" with
  | Error d -> Alcotest.fail d.Kit.Diag.message
  | Ok (_, diags) -> (
      match diags with
      | [ d ] ->
          Alcotest.(check bool) "mentions the string" true
            (String.length d.Kit.Diag.message > 0);
          Alcotest.(check int) "span starts at the quote" 7
            d.Kit.Diag.span.Kit.Diag.start
      | ds -> Alcotest.failf "expected one diagnostic, got %d" (List.length ds))

(* Tentpole acceptance: a file with three independent mistakes reports
   several distinct file:line:col diagnostics with carets in one pass. *)
let multi_error_report () =
  let src =
    "SELECT a FROM WHERE x = 1;\n\
     SELECT 'unterminated;\n\
     SELECT b FROM t GROUP BY;\n"
  in
  match Sql.Parser.parse_report src with
  | Ok _ -> Alcotest.fail "broken file must not parse"
  | Error ds ->
      Alcotest.(check bool)
        (Printf.sprintf "at least 2 diagnostics (got %d)" (List.length ds))
        true
        (List.length ds >= 2);
      (* Diagnostics must land on at least two distinct lines. *)
      let lines =
        List.sort_uniq compare
          (List.map
             (fun d ->
               (Kit.Diag.position src d.Kit.Diag.span.Kit.Diag.start)
                 .Kit.Diag.line)
             ds)
      in
      Alcotest.(check bool) "distinct lines" true (List.length lines >= 2);
      let rendered = Kit.Diag.render_all ~file:"bad.sql" ~source:src ds in
      Alcotest.(check bool) "file:line:col prefix" true
        (String.length rendered > 0
        && Str.string_match (Str.regexp "bad\\.sql:[0-9]+:[0-9]+: error:")
             rendered 0);
      Alcotest.(check bool) "carets rendered" true
        (String.contains rendered '^')

let depth_bound () =
  (* A parenthesis bomb twice the depth bound must come back as a clean
     Error naming the knob — not Stack_overflow. *)
  let depth = Kit.Config.parse_depth () * 2 in
  let src =
    "SELECT " ^ String.make depth '(' ^ "x" ^ String.make depth ')'
    ^ " FROM t"
  in
  (match Sql.Parser.parse_report src with
  | Error ds ->
      Alcotest.(check bool) "names the knob" true
        (let re = Str.regexp_string "HB_PARSE_DEPTH" in
         try
           ignore (Str.search_forward re (Kit.Diag.to_message ~source:src ds) 0);
           true
         with Not_found -> false)
  | Ok _ -> Alcotest.fail "paren bomb must not parse");
  (* NOT chains recurse through a different path. *)
  let nots = String.concat " " (List.init depth (fun _ -> "NOT")) in
  match Sql.Parser.parse_report ("SELECT a FROM t WHERE " ^ nots ^ " a = 1") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "NOT bomb must not parse"

let select_spans () =
  let src = "SELECT a FROM t WHERE a = 1" in
  match Sql.Parser.parse_report src with
  | Error ds -> Alcotest.fail (Kit.Diag.to_message ~source:src ds)
  | Ok { body = Select s; _ } ->
      Alcotest.(check int) "span starts at SELECT" 0 s.Sql.Ast.span.Kit.Diag.start;
      Alcotest.(check int) "span covers the statement" (String.length src)
        s.Sql.Ast.span.Kit.Diag.stop
  | Ok _ -> Alcotest.fail "expected a plain select"

let aggregates_and_groupby () =
  let results =
    convert
      {| SELECT t1.a, COUNT(*) FROM tab t1, tab t2
         WHERE t1.a = t2.a GROUP BY t1.a HAVING COUNT(*) > 1 ORDER BY t1.a DESC LIMIT 10; |}
  in
  let h = hypergraph_of (snd (List.hd results)) in
  Alcotest.(check int) "structure unaffected by aggregation" 2 h.H.n_edges

let scalar_subquery () =
  let results =
    convert
      {| SELECT * FROM tab t1 WHERE t1.a = (SELECT tab.a FROM tab WHERE tab.b = 2); |}
  in
  Alcotest.(check int) "scalar subquery extracted" 2 (List.length results)

let nested_uncorrelated_depth2 () =
  let results =
    convert
      {| SELECT * FROM tab t1 WHERE t1.a IN
           (SELECT t2.a FROM tab t2 WHERE t2.b IN
             (SELECT t3.b FROM tab t3 WHERE t3.c = 'x')); |}
  in
  let ids = List.map fst results |> List.sort compare in
  Alcotest.(check (list string)) "all three levels extracted"
    [ "q"; "q.sub1"; "q.sub1.sub1" ] ids

let () =
  Alcotest.run "sql"
    [
      ( "paper examples",
        [
          Alcotest.test_case "listing 1" `Quick query1;
          Alcotest.test_case "listing 2" `Quick query2;
          Alcotest.test_case "listing 3 (view)" `Quick query3;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "set operations split" `Quick setop_split;
          Alcotest.test_case "JOIN ... ON" `Quick join_on_syntax;
          Alcotest.test_case "OR dropped" `Quick or_conditions_dropped;
          Alcotest.test_case "constant deletes class" `Quick constant_deletion_propagates;
          Alcotest.test_case "duplicate edges dropped" `Quick duplicate_edges_dropped;
          Alcotest.test_case "schemaless inference" `Quick schemaless_inference;
          Alcotest.test_case "aggregates ignored" `Quick aggregates_and_groupby;
          Alcotest.test_case "scalar subquery" `Quick scalar_subquery;
          Alcotest.test_case "nested depth 2" `Quick nested_uncorrelated_depth2;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "parse errors" `Quick parse_errors;
          Alcotest.test_case "lexer" `Quick lexer_features;
          Alcotest.test_case "multi-error report" `Quick multi_error_report;
          Alcotest.test_case "depth bound" `Quick depth_bound;
          Alcotest.test_case "select spans" `Quick select_spans;
        ] );
    ]
