module Rng = Kit.Rng

(* --- TPC-H ---------------------------------------------------------------- *)

let tpch_schema =
  Sql.Schema.of_list
    [
      ("region", [ "r_regionkey"; "r_name"; "r_comment" ]);
      ("nation", [ "n_nationkey"; "n_name"; "n_regionkey"; "n_comment" ]);
      ( "supplier",
        [ "s_suppkey"; "s_name"; "s_address"; "s_nationkey"; "s_phone"; "s_acctbal"; "s_comment" ] );
      ( "customer",
        [ "c_custkey"; "c_name"; "c_address"; "c_nationkey"; "c_phone"; "c_acctbal"; "c_mktsegment"; "c_comment" ] );
      ( "part",
        [ "p_partkey"; "p_name"; "p_mfgr"; "p_brand"; "p_type"; "p_size"; "p_container"; "p_retailprice"; "p_comment" ] );
      ("partsupp", [ "ps_partkey"; "ps_suppkey"; "ps_availqty"; "ps_supplycost"; "ps_comment" ]);
      ( "orders",
        [ "o_orderkey"; "o_custkey"; "o_orderstatus"; "o_totalprice"; "o_orderdate"; "o_orderpriority"; "o_clerk"; "o_shippriority"; "o_comment" ] );
      ( "lineitem",
        [ "l_orderkey"; "l_partkey"; "l_suppkey"; "l_linenumber"; "l_quantity"; "l_extendedprice"; "l_discount"; "l_tax"; "l_returnflag"; "l_linestatus"; "l_shipdate"; "l_commitdate"; "l_receiptdate"; "l_shipinstruct"; "l_shipmode"; "l_comment" ] );
    ]

let tpch_queries =
  [
    ( "q2",
      {| SELECT s.s_acctbal, s.s_name, n.n_name, p.p_partkey
         FROM part p, supplier s, partsupp ps, nation n, region r
         WHERE p.p_partkey = ps.ps_partkey
           AND s.s_suppkey = ps.ps_suppkey
           AND p.p_size = 15
           AND s.s_nationkey = n.n_nationkey
           AND n.n_regionkey = r.r_regionkey
           AND r.r_name = 'EUROPE'
           AND ps.ps_supplycost = (SELECT ps2.ps_supplycost
                                   FROM partsupp ps2, supplier s2, nation n2, region r2
                                   WHERE s2.s_suppkey = ps2.ps_suppkey
                                     AND s2.s_nationkey = n2.n_nationkey
                                     AND n2.n_regionkey = r2.r_regionkey
                                     AND r2.r_name = 'EUROPE'); |} );
    ( "q3",
      {| SELECT l.l_orderkey, o.o_orderdate, o.o_shippriority
         FROM customer c, orders o, lineitem l
         WHERE c.c_mktsegment = 'BUILDING'
           AND c.c_custkey = o.o_custkey
           AND l.l_orderkey = o.o_orderkey; |} );
    ( "q5",
      {| SELECT n.n_name
         FROM customer c, orders o, lineitem l, supplier s, nation n, region r
         WHERE c.c_custkey = o.o_custkey
           AND l.l_orderkey = o.o_orderkey
           AND l.l_suppkey = s.s_suppkey
           AND c.c_nationkey = s.s_nationkey
           AND s.s_nationkey = n.n_nationkey
           AND n.n_regionkey = r.r_regionkey
           AND r.r_name = 'ASIA'; |} );
    ( "q7",
      {| SELECT n1.n_name, n2.n_name, l.l_shipdate
         FROM supplier s, lineitem l, orders o, customer c, nation n1, nation n2
         WHERE s.s_suppkey = l.l_suppkey
           AND o.o_orderkey = l.l_orderkey
           AND c.c_custkey = o.o_custkey
           AND s.s_nationkey = n1.n_nationkey
           AND c.c_nationkey = n2.n_nationkey; |} );
    ( "q9",
      {| SELECT n.n_name, o.o_orderdate
         FROM part p, supplier s, lineitem l, partsupp ps, orders o, nation n
         WHERE s.s_suppkey = l.l_suppkey
           AND ps.ps_suppkey = l.l_suppkey
           AND ps.ps_partkey = l.l_partkey
           AND p.p_partkey = l.l_partkey
           AND o.o_orderkey = l.l_orderkey
           AND s.s_nationkey = n.n_nationkey
           AND p.p_name LIKE 'green'; |} );
    ( "q10",
      {| SELECT c.c_custkey, c.c_name, n.n_name
         FROM customer c, orders o, lineitem l, nation n
         WHERE c.c_custkey = o.o_custkey
           AND l.l_orderkey = o.o_orderkey
           AND l.l_returnflag = 'R'
           AND c.c_nationkey = n.n_nationkey; |} );
    ( "q18",
      {| SELECT c.c_name, o.o_orderdate, o.o_totalprice
         FROM customer c, orders o, lineitem l
         WHERE o.o_orderkey IN (SELECT l2.l_orderkey
                                FROM lineitem l2
                                WHERE l2.l_quantity > 300)
           AND c.c_custkey = o.o_custkey
           AND o.o_orderkey = l.l_orderkey; |} );
    ( "q21",
      {| SELECT s.s_name
         FROM supplier s, lineitem l1, orders o, nation n
         WHERE s.s_suppkey = l1.l_suppkey
           AND o.o_orderkey = l1.l_orderkey
           AND o.o_orderstatus = 'F'
           AND s.s_nationkey = n.n_nationkey
           AND EXISTS (SELECT * FROM lineitem l2
                       WHERE l2.l_orderkey = l1.l_orderkey)
           AND n.n_name = 'SAUDI ARABIA'; |} );
    ( "qview",
      {| WITH big_suppliers AS (
           SELECT ps.ps_suppkey sk, ps.ps_partkey pk
           FROM partsupp ps, supplier s
           WHERE ps.ps_suppkey = s.s_suppkey AND s.s_acctbal > 1000 )
         SELECT p.p_name
         FROM part p, big_suppliers b, lineitem l
         WHERE p.p_partkey = b.pk
           AND l.l_partkey = b.pk
           AND l.l_suppkey = b.sk; |} );
  ]

(* --- TPC-DS-like ----------------------------------------------------------- *)

let tpcds_schema =
  Sql.Schema.of_list
    [
      ( "store_sales",
        [ "ss_sold_date_sk"; "ss_item_sk"; "ss_customer_sk"; "ss_store_sk"; "ss_promo_sk"; "ss_quantity"; "ss_net_paid" ] );
      ( "catalog_sales",
        [ "cs_sold_date_sk"; "cs_item_sk"; "cs_bill_customer_sk"; "cs_quantity" ] );
      ("date_dim", [ "d_date_sk"; "d_year"; "d_moy"; "d_dom" ]);
      ("item", [ "i_item_sk"; "i_brand_id"; "i_category"; "i_manufact_id" ]);
      ("customer", [ "c_customer_sk"; "c_current_addr_sk"; "c_first_name"; "c_last_name" ]);
      ("customer_address", [ "ca_address_sk"; "ca_state"; "ca_zip" ]);
      ("store", [ "s_store_sk"; "s_store_name"; "s_state" ]);
      ("promotion", [ "p_promo_sk"; "p_channel_email" ]);
    ]

let tpcds_queries =
  [
    ( "ds_q3",
      {| SELECT d.d_year, i.i_brand_id
         FROM date_dim d, store_sales ss, item i
         WHERE d.d_date_sk = ss.ss_sold_date_sk
           AND ss.ss_item_sk = i.i_item_sk
           AND i.i_manufact_id = 128 AND d.d_moy = 11; |} );
    ( "ds_q7",
      {| SELECT i.i_item_sk
         FROM store_sales ss, date_dim d, item i, promotion p, customer c
         WHERE ss.ss_sold_date_sk = d.d_date_sk
           AND ss.ss_item_sk = i.i_item_sk
           AND ss.ss_promo_sk = p.p_promo_sk
           AND ss.ss_customer_sk = c.c_customer_sk
           AND d.d_year = 2000; |} );
    ( "ds_q19",
      {| SELECT i.i_brand_id, s.s_store_name
         FROM date_dim d, store_sales ss, item i, customer c, customer_address ca, store s
         WHERE d.d_date_sk = ss.ss_sold_date_sk
           AND ss.ss_item_sk = i.i_item_sk
           AND ss.ss_customer_sk = c.c_customer_sk
           AND c.c_current_addr_sk = ca.ca_address_sk
           AND ss.ss_store_sk = s.s_store_sk; |} );
    ( "ds_union",
      {| SELECT ss.ss_item_sk FROM store_sales ss, date_dim d
         WHERE ss.ss_sold_date_sk = d.d_date_sk
         UNION
         SELECT cs.cs_item_sk FROM catalog_sales cs, date_dim d2
         WHERE cs.cs_sold_date_sk = d2.d_date_sk; |} );
    ( "ds_cross_channel",
      {| SELECT c.c_customer_sk
         FROM customer c, store_sales ss, catalog_sales cs, item i
         WHERE ss.ss_customer_sk = c.c_customer_sk
           AND cs.cs_bill_customer_sk = c.c_customer_sk
           AND ss.ss_item_sk = i.i_item_sk
           AND cs.cs_item_sk = i.i_item_sk; |} );
  ]

(* --- JOB-like (IMDB) -------------------------------------------------------- *)

let job_schema =
  Sql.Schema.of_list
    [
      ("title", [ "id"; "kind_id"; "production_year"; "title" ]);
      ("movie_companies", [ "movie_id"; "company_id"; "company_type_id" ]);
      ("company_name", [ "id"; "name"; "country_code" ]);
      ("company_type", [ "id"; "kind" ]);
      ("cast_info", [ "movie_id"; "person_id"; "role_id" ]);
      ("name", [ "id"; "name"; "gender" ]);
      ("role_type", [ "id"; "role" ]);
      ("movie_keyword", [ "movie_id"; "keyword_id" ]);
      ("keyword", [ "id"; "keyword" ]);
      ("movie_info", [ "movie_id"; "info_type_id"; "info" ]);
      ("info_type", [ "id"; "info" ]);
      ("kind_type", [ "id"; "kind" ]);
    ]

let job_queries =
  [
    ( "job_1a",
      {| SELECT t.title
         FROM title t, movie_companies mc, company_name cn, company_type ct
         WHERE t.id = mc.movie_id
           AND mc.company_id = cn.id
           AND mc.company_type_id = ct.id
           AND ct.kind = 'production companies'; |} );
    ( "job_3b",
      {| SELECT t.title
         FROM title t, movie_keyword mk, keyword k, movie_info mi, info_type it
         WHERE t.id = mk.movie_id
           AND mk.keyword_id = k.id
           AND t.id = mi.movie_id
           AND mi.info_type_id = it.id
           AND k.keyword = 'sequel'; |} );
    ( "job_8c",
      {| SELECT n.name
         FROM cast_info ci, name n, role_type rt, title t, movie_companies mc, company_name cn
         WHERE ci.person_id = n.id
           AND ci.role_id = rt.id
           AND ci.movie_id = t.id
           AND mc.movie_id = t.id
           AND mc.company_id = cn.id; |} );
    ( "job_cyclic",
      {| SELECT ci.role_id
         FROM cast_info ci, movie_keyword mk, movie_info mi
         WHERE ci.movie_id = mk.movie_id
           AND mk.keyword_id = mi.info_type_id
           AND mi.movie_id = ci.person_id; |} );
    ( "job_13d",
      {| SELECT t.title
         FROM title t, kind_type kt, movie_info mi, info_type it,
              movie_companies mc, company_name cn, company_type ct
         WHERE t.kind_id = kt.id
           AND t.id = mi.movie_id
           AND mi.info_type_id = it.id
           AND t.id = mc.movie_id
           AND mc.company_id = cn.id
           AND mc.company_type_id = ct.id; |} );
  ]

let convert_workload schema queries =
  List.concat_map
    (fun (name, sql) ->
      match Sql.Convert.sql_to_hypergraphs_report ~schema sql with
      | Error ds ->
          failwith
            (Printf.sprintf "workload query %s: %s" name
               (Kit.Diag.to_message ~source:sql ds))
      | Ok results ->
          List.filter_map
            (fun (id, conv) ->
              match conv.Sql.Convert.hypergraph with
              | Some h when h.Hg.Hypergraph.n_edges >= 1 ->
                  Some (Printf.sprintf "%s.%s" name id, h)
              | _ -> None)
            results)
    queries

(* --- direct generators ------------------------------------------------------ *)

let lubm rng =
  (* Star or small tree over binary/ternary atoms; 1 in 5 has a cycle. *)
  let atoms = Rng.int_in rng 3 8 in
  let next = ref 1 in
  let edges = ref [] in
  let nodes = ref [ 0 ] in
  for _ = 1 to atoms do
    let parent = Rng.pick rng (Array.of_list !nodes) in
    let v = !next in
    incr next;
    nodes := v :: !nodes;
    if Rng.float rng < 0.25 then begin
      let w = !next in
      incr next;
      edges := [ parent; v; w ] :: !edges;
      nodes := w :: !nodes
    end
    else edges := [ parent; v ] :: !edges
  done;
  if Rng.float rng < 0.2 && List.length !nodes >= 3 then begin
    let arr = Array.of_list !nodes in
    let a = Rng.pick rng arr and b = Rng.pick rng arr in
    if a <> b then edges := [ a; b ] :: !edges
  end;
  Hg.Hypergraph.of_int_edges !edges |> Hg.Hypergraph.dedup_edges |> Hg.Hypergraph.compact

let deep rng =
  let len = Rng.int_in rng 5 25 in
  Random_cq.chain rng ~n_edges:len ~arity:(Rng.int_in rng 2 4)

let ibench rng =
  (* Acyclic wide-arity tree joins: each child atom shares one variable
     with its parent atom. *)
  let atoms = Rng.int_in rng 2 7 in
  let next = ref 0 in
  let edges = ref [] in
  let fresh n =
    let vs = List.init n (fun i -> !next + i) in
    next := !next + n;
    vs
  in
  let root = fresh (Rng.int_in rng 3 8) in
  edges := [ root ];
  for _ = 2 to atoms do
    let parent = Rng.pick rng (Array.of_list !edges) in
    let link = Rng.pick rng (Array.of_list parent) in
    let body = fresh (Rng.int_in rng 2 7) in
    edges := (link :: body) :: !edges
  done;
  Hg.Hypergraph.of_int_edges !edges

let doctors rng =
  (* Small mapping/cleaning joins: 2-4 atoms of arity 4-6 sharing key
     variables pairwise along a path. *)
  let atoms = Rng.int_in rng 2 4 in
  let next = ref 0 in
  let edges = ref [] in
  let prev_key = ref (-1) in
  for _ = 1 to atoms do
    let a = Rng.int_in rng 4 6 in
    let fresh_count = if !prev_key >= 0 then a - 1 else a in
    let fresh = List.init fresh_count (fun i -> !next + i) in
    next := !next + fresh_count;
    let members = if !prev_key >= 0 then !prev_key :: fresh else fresh in
    prev_key := List.nth members (List.length members - 1);
    edges := members :: !edges
  done;
  Hg.Hypergraph.of_int_edges (List.rev !edges)

let sqlshare rng =
  let style = Rng.int rng 3 in
  match style with
  | 0 -> Random_cq.chain rng ~n_edges:(Rng.int_in rng 3 8) ~arity:(Rng.int_in rng 2 5)
  | 1 -> Random_cq.star rng ~n_edges:(Rng.int_in rng 3 7) ~arity:(Rng.int_in rng 2 4)
  | _ ->
      (* Chain with one closing edge: a long cycle. *)
      let n = Rng.int_in rng 3 7 in
      let h = Random_cq.chain rng ~n_edges:n ~arity:2 in
      let last = h.Hg.Hypergraph.n_vertices - 1 in
      Hg.Hypergraph.of_int_edges
        (List.map
           (fun e -> Kit.Bitset.to_list e)
           (Array.to_list h.Hg.Hypergraph.edges)
        @ [ [ 0; last ] ])
