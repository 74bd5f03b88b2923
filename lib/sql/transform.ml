open Ast

type simple = {
  id : string;
  select : Ast.select;
}

type outcome = {
  simples : simple list;
  schema : Schema.t;
  warnings : string list;
}

(* --- generic traversals -------------------------------------------------- *)

let rec expr_cols e acc =
  match e with
  | Col (q, c) -> (q, c) :: acc
  | Lit _ | Star -> acc
  | Fun (_, args) -> List.fold_right expr_cols args acc
  | Binop (_, a, b) -> expr_cols a (expr_cols b acc)

let rec cond_cols c acc =
  match c with
  | And (a, b) | Or (a, b) -> cond_cols a (cond_cols b acc)
  | Not a -> cond_cols a acc
  | Cmp (_, a, b) -> expr_cols a (expr_cols b acc)
  | In_query (e, _) | Cmp_query (_, e, _) -> expr_cols e acc
  | In_list (e, es) -> expr_cols e (List.fold_right expr_cols es acc)
  | Exists _ -> acc
  | Between (e, lo, hi) -> expr_cols e (expr_cols lo (expr_cols hi acc))
  | Is_null (e, _) | Like (e, _, _) -> expr_cols e acc

(* All column references of a query, including nested subqueries. *)
let rec query_cols q acc =
  match q with
  | Setop (_, a, b) -> query_cols a (query_cols b acc)
  | Select s ->
      let acc = List.fold_right (fun (e, _) -> expr_cols e) s.select_list acc in
      let acc = match s.where with Some c -> deep_cond_cols c acc | None -> acc in
      let acc = List.fold_right expr_cols s.group_by acc in
      let acc = match s.having with Some c -> deep_cond_cols c acc | None -> acc in
      let acc = List.fold_right expr_cols s.order_by acc in
      List.fold_right
        (fun tr acc ->
          match tr with Derived (q', _) -> query_cols q' acc | Table _ -> acc)
        s.from acc

and deep_cond_cols c acc =
  let acc = cond_cols c acc in
  match c with
  | In_query (_, q) | Cmp_query (_, _, q) | Exists q -> query_cols q acc
  | And (a, b) | Or (a, b) -> deep_cond_cols a (deep_cond_cols b acc)
  | Not a -> deep_cond_cols a acc
  | Cmp _ | In_list _ | Between _ | Is_null _ | Like _ -> acc

let bindings_of_select s = List.map Ast.binding_name s.from

(* --- view expansion ------------------------------------------------------ *)

(* Environment: expanded view bodies by (lowercased) name. *)
let norm = String.lowercase_ascii

(* Reset at each [extract] so that repeated runs produce identical alias
   names (the benchmark repository relies on this determinism). *)
let alias_counter = ref 0

let fresh_alias base =
  incr alias_counter;
  Printf.sprintf "%s_%d" base !alias_counter

(* Output columns of a view: alias if given, else the column name for plain
   column items. *)
let view_columns (s : select) =
  List.filter_map
    (fun (e, alias) ->
      match (alias, e) with
      | Some a, _ -> Some (a, e)
      | None, Col (_, c) -> Some (c, e)
      | None, _ -> None)
    s.select_list

let rec rewrite_expr map e =
  match e with
  | Col (Some q, c) -> (
      match List.assoc_opt (norm q, norm c) map with
      | Some e' -> e'
      | None -> (
          match List.assoc_opt (norm q, "*") map with
          | Some (Col (Some q', _)) -> Col (Some q', c)
          | _ -> e))
  | Col (None, _) | Lit _ | Star -> e
  | Fun (f, args) -> Fun (f, List.map (rewrite_expr map) args)
  | Binop (op, a, b) -> Binop (op, rewrite_expr map a, rewrite_expr map b)

let rec rewrite_cond map c =
  match c with
  | And (a, b) -> And (rewrite_cond map a, rewrite_cond map b)
  | Or (a, b) -> Or (rewrite_cond map a, rewrite_cond map b)
  | Not a -> Not (rewrite_cond map a)
  | Cmp (op, a, b) -> Cmp (op, rewrite_expr map a, rewrite_expr map b)
  | In_query (e, q) -> In_query (rewrite_expr map e, q)
  | Cmp_query (op, e, q) -> Cmp_query (op, rewrite_expr map e, q)
  | In_list (e, es) -> In_list (rewrite_expr map e, List.map (rewrite_expr map) es)
  | Exists q -> Exists q
  | Between (e, lo, hi) ->
      Between (rewrite_expr map e, rewrite_expr map lo, rewrite_expr map hi)
  | Is_null (e, b) -> Is_null (rewrite_expr map e, b)
  | Like (e, s, b) -> Like (rewrite_expr map e, s, b)

(* A select is inlineable when it is a plain conjunctive shape: no
   grouping, no distinct (distinct is harmless for structure, but keep it
   simple), and its FROM contains only base tables. *)
let inlineable (s : select) =
  s.group_by = [] && s.having = None
  && List.for_all (function Table _ -> true | Derived _ -> false) s.from

(* Inline [view_body] (an inlineable select) into [outer] replacing the
   table_ref bound as [alias]. Returns the updated select. *)
let inline_view ~alias ~(view_body : select) (outer : select) =
  (* Fresh aliases for the view's internal bindings. *)
  let renaming =
    List.map
      (fun tr ->
        let b = Ast.binding_name tr in
        (norm b, fresh_alias b))
      view_body.from
  in
  let rename_expr e =
    rewrite_expr
      (List.map (fun (old, fresh) -> ((old, "*"), Col (Some fresh, "*"))) renaming)
      e
  in
  let rename_cond c =
    rewrite_cond
      (List.map (fun (old, fresh) -> ((old, "*"), Col (Some fresh, "*"))) renaming)
      c
  in
  let renamed_from =
    List.map
      (fun tr ->
        match tr with
        | Table (name, _) ->
            Table (name, Some (List.assoc (norm (Ast.binding_name tr)) renaming))
        | Derived _ -> assert false)
      view_body.from
  in
  (* Map view output columns to renamed inner expressions. *)
  let col_map =
    List.map
      (fun (out_col, e) -> ((norm alias, norm out_col), rename_expr e))
      (view_columns view_body)
  in
  let from =
    List.concat_map
      (fun tr ->
        if norm (Ast.binding_name tr) = norm alias then renamed_from else [ tr ])
      outer.from
  in
  let inner_where = Option.map rename_cond view_body.where in
  let where =
    Ast.conjoin
      (Option.to_list (Option.map (rewrite_cond col_map) outer.where)
      @ Option.to_list inner_where)
  in
  {
    outer with
    from;
    where;
    select_list = List.map (fun (e, a) -> (rewrite_expr col_map e, a)) outer.select_list;
    group_by = List.map (rewrite_expr col_map) outer.group_by;
    order_by = List.map (rewrite_expr col_map) outer.order_by;
  }

(* --- the main extraction ------------------------------------------------- *)

let extract ?(schema = Schema.empty) (stmt : statement) =
  alias_counter := 0;
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun s -> warnings := s :: !warnings) fmt in
  let schema = ref schema in
  let simples = ref [] in
  (* Expanded views by name; opaque views are registered in the schema. *)
  let views : (string, select option) Hashtbl.t = Hashtbl.create 8 in

  (* Stage 1+2+3 are interleaved: walk a query; [path] names it; [outer]
     is the list of binding sets of all ancestor queries (for the
     correlation test of §5.3). *)
  let rec walk_query path outer q =
    match q with
    | Setop (_, a, b) ->
        walk_query (path ^ ".u1") outer a;
        walk_query (path ^ ".u2") outer b
    | Select s -> walk_select path outer s

  and resolve_from path s =
    (* Expand view references and FROM-subqueries. Fixpoint because an
       inlined view can re-introduce view references (views may use other
       views). *)
    let changed = ref false in
    let s =
      List.fold_left
        (fun s tr ->
          match tr with
          | Derived (q', alias) -> (
              match q' with
              | Select inner when inlineable inner ->
                  changed := true;
                  inline_view ~alias ~view_body:inner s
              | _ ->
                  (* Opaque derived table: register output columns. *)
                  changed := true;
                  let cols =
                    match q' with
                    | Select inner -> List.map fst (view_columns inner)
                    | Setop _ -> []
                  in
                  schema := Schema.add alias cols !schema;
                  walk_query (path ^ "." ^ alias) [] q';
                  {
                    s with
                    from =
                      List.map
                        (fun tr' ->
                          if tr' == tr then Table (alias, Some alias) else tr')
                        s.from;
                  })
          | Table (name, alias_opt) -> (
              match Hashtbl.find_opt views (norm name) with
              | Some (Some body) ->
                  changed := true;
                  let alias = Option.value alias_opt ~default:name in
                  inline_view ~alias ~view_body:body s
              | Some None | None -> s))
        s s.from
    in
    if !changed then resolve_from path s else s

  and walk_select path outer s =
    let s = resolve_from path s in
    let my_bindings = List.map norm (bindings_of_select s) in
    (* Correlation test: does a (sub)query reference a binding that is not
       local to it but belongs to an ancestor? *)
    let correlated q =
      let cols = query_cols q [] in
      let local = local_bindings q in
      List.exists
        (fun (qual, _) ->
          match qual with
          | None -> false
          | Some b ->
              let b = norm b in
              (not (List.mem b local))
              && List.exists (List.mem b) (my_bindings :: outer))
        cols
    in
    (* Emit this query as a simple one. *)
    simples := { id = path; select = s } :: !simples;
    (* Extract uncorrelated WHERE-subqueries as independent queries. *)
    let counter = ref 0 in
    let rec visit_cond c =
      match c with
      | And (a, b) | Or (a, b) ->
          visit_cond a;
          visit_cond b
      | Not a -> visit_cond a
      | In_query (_, q) | Cmp_query (_, _, q) | Exists q ->
          incr counter;
          if correlated q then
            warn "%s: dropped correlated subquery #%d (cycle in dependency graph)"
              path !counter
          else walk_query (Printf.sprintf "%s.sub%d" path !counter) (my_bindings :: outer) q
      | Cmp _ | In_list _ | Between _ | Is_null _ | Like _ -> ()
    in
    Option.iter visit_cond s.where;
    Option.iter visit_cond s.having

  and local_bindings q =
    (* Bindings defined anywhere inside q (its own FROM and nested). *)
    match q with
    | Setop (_, a, b) -> local_bindings a @ local_bindings b
    | Select s ->
        List.map norm (bindings_of_select s)
        @ List.concat_map
            (fun tr ->
              match tr with Derived (q', _) -> local_bindings q' | Table _ -> [])
            s.from
        @
        let rec sub_cond c =
          match c with
          | And (a, b) | Or (a, b) -> sub_cond a @ sub_cond b
          | Not a -> sub_cond a
          | In_query (_, q') | Cmp_query (_, _, q') | Exists q' -> local_bindings q'
          | Cmp _ | In_list _ | Between _ | Is_null _ | Like _ -> []
        in
        (match s.where with Some c -> sub_cond c | None -> [])
  in

  (* Register WITH views first (they may reference earlier views). *)
  List.iter
    (fun (name, q) ->
      match q with
      | Select body when inlineable body ->
          (* Expand references to earlier views inside this body. *)
          let body = resolve_from ("view:" ^ name) body in
          Hashtbl.replace views (norm name) (Some body)
      | _ ->
          let cols =
            match q with
            | Select body -> List.map fst (view_columns body)
            | Setop _ -> []
          in
          schema := Schema.add name cols !schema;
          Hashtbl.replace views (norm name) None;
          walk_query ("view:" ^ name) [] q)
    stmt.views;

  walk_query "q" [] stmt.body;
  {
    simples = List.rev !simples;
    schema = !schema;
    warnings = List.rev !warnings;
  }
