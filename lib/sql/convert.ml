open Ast

type conversion = {
  hypergraph : Hg.Hypergraph.t option;
  warnings : string list;
}

let norm = String.lowercase_ascii

(* A table instance of the FROM clause. *)
type instance = {
  idx : int;
  relation : string;
  binding : string;  (* alias or relation name: unique within the query *)
  mutable attrs : string list;  (* normalised attribute names *)
}

let select_to_hypergraph ~schema (s : select) =
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  (* 1. Instances. Derived tables surviving to this point are opaque; they
     behave like base relations named by their alias. *)
  let instances =
    List.mapi
      (fun idx tr ->
        {
          idx;
          relation = Ast.relation_name tr;
          binding = norm (Ast.binding_name tr);
          attrs =
            (match Schema.attrs schema (Ast.relation_name tr) with
            | Some l -> List.map norm l
            | None -> []);
        })
      s.from
  in
  let find_binding b = List.find_opt (fun i -> i.binding = norm b) instances in
  (* 2. Attribute discovery for schemaless relations: every referenced
     column extends its instance's attribute list. *)
  let ensure_attr inst attr =
    let attr = norm attr in
    if not (List.mem attr inst.attrs) then inst.attrs <- inst.attrs @ [ attr ]
  in
  let resolve ?(quiet = false) qual col =
    match qual with
    | Some b -> (
        match find_binding b with
        | Some inst ->
            ensure_attr inst col;
            Some (inst, norm col)
        | None ->
            if not quiet then warn "unknown table binding %s.%s" b col;
            None)
    | None -> (
        (* Unqualified: unique owner via schema, else the only table. *)
        let owners =
          List.filter (fun i -> Schema.has_attr schema i.relation col) instances
        in
        match (owners, instances) with
        | [ inst ], _ ->
            ensure_attr inst col;
            Some (inst, norm col)
        | [], [ inst ] ->
            ensure_attr inst col;
            Some (inst, norm col)
        | [], _ ->
            if not quiet then warn "cannot resolve unqualified column %s" col;
            None
        | _ :: _ :: _, _ ->
            if not quiet then warn "ambiguous unqualified column %s" col;
            None)
  in
  (* Pre-register columns referenced anywhere in this select so that
     schemaless instances get their attributes. *)
  let rec touch_expr e =
    match e with
    | Col (q, c) -> ignore (resolve ~quiet:true q c)
    | Lit _ | Star -> ()
    | Fun (_, args) -> List.iter touch_expr args
    | Binop (_, a, b) ->
        touch_expr a;
        touch_expr b
  in
  let rec touch_cond c =
    match c with
    | And (a, b) | Or (a, b) ->
        touch_cond a;
        touch_cond b
    | Not a -> touch_cond a
    | Cmp (_, a, b) ->
        touch_expr a;
        touch_expr b
    | In_query (e, _) | Cmp_query (_, e, _) -> touch_expr e
    | In_list (e, es) ->
        touch_expr e;
        List.iter touch_expr es
    | Exists _ -> ()
    | Between (e, lo, hi) ->
        touch_expr e;
        touch_expr lo;
        touch_expr hi
    | Is_null (e, _) | Like (e, _, _) -> touch_expr e
  in
  List.iter (fun (e, _) -> touch_expr e) s.select_list;
  Option.iter touch_cond s.where;
  List.iter touch_expr s.group_by;
  Option.iter touch_cond s.having;
  List.iter touch_expr s.order_by;
  (* 3. Vertices: one per (instance, attr). *)
  let vertex_ids : (int * string, int) Hashtbl.t = Hashtbl.create 32 in
  let vertex_names = ref [] in
  let n_vertices = ref 0 in
  List.iter
    (fun inst ->
      List.iter
        (fun attr ->
          Hashtbl.replace vertex_ids (inst.idx, attr) !n_vertices;
          vertex_names := Printf.sprintf "%s.%s" inst.binding attr :: !vertex_names;
          incr n_vertices)
        inst.attrs)
    instances;
  let vertex_names = Array.of_list (List.rev !vertex_names) in
  if !n_vertices = 0 then
    { hypergraph = None; warnings = List.rev !warnings }
  else begin
    let uf = Kit.Union_find.create !n_vertices in
    let deleted = Array.make !n_vertices false in
    let vertex inst attr = Hashtbl.find vertex_ids (inst.idx, attr) in
    (* 4. Interpret the conjunctive core. *)
    let handle_conjunct c =
      match c with
      | Cmp (Eq, Col (qa, ca), Col (qb, cb)) -> (
          match (resolve qa ca, resolve qb cb) with
          | Some (ia, aa), Some (ib, ab) ->
              Kit.Union_find.union uf (vertex ia aa) (vertex ib ab)
          | _ -> ())
      | Cmp (Eq, Col (q, c), Lit _) | Cmp (Eq, Lit _, Col (q, c)) -> (
          match resolve q c with
          | Some (i, a) -> deleted.(vertex i a) <- true
          | None -> ())
      | _ -> ()
    in
    (match s.where with
    | Some w -> List.iter handle_conjunct (Ast.conjuncts w)
    | None -> ());
    (* A class is deleted when any member was equated to a constant. *)
    let class_deleted = Array.make !n_vertices false in
    for v = 0 to !n_vertices - 1 do
      if deleted.(v) then class_deleted.(Kit.Union_find.find uf v) <- true
    done;
    (* 5. Edges. *)
    let rep_name = Array.make !n_vertices None in
    let edges =
      List.map
        (fun inst ->
          let members =
            List.filter_map
              (fun attr ->
                let v = vertex inst attr in
                let r = Kit.Union_find.find uf v in
                if class_deleted.(r) then None
                else begin
                  if rep_name.(r) = None then rep_name.(r) <- Some vertex_names.(v);
                  Some r
                end)
              inst.attrs
            |> List.sort_uniq compare
          in
          (inst, members))
        instances
    in
    let edges = List.filter (fun (_, m) -> m <> []) edges in
    (* Dedup identical member sets, keeping the first instance's name. *)
    let seen = Hashtbl.create 16 in
    let edges =
      List.filter
        (fun (_, m) ->
          if Hashtbl.mem seen m then false
          else begin
            Hashtbl.replace seen m ();
            true
          end)
        edges
    in
    if edges = [] then begin
      warn "conversion produced no edges";
      { hypergraph = None; warnings = List.rev !warnings }
    end
    else begin
      let named =
        List.map
          (fun (inst, members) ->
            ( inst.binding,
              List.map (fun r -> Option.get rep_name.(r)) members ))
          edges
      in
      (* Bindings are unique, but guard against pathological inputs; the
         suffix uses '.' so the HyperBench text format can round-trip the
         edge names. *)
      let named =
        List.mapi (fun i (n, m) -> (Printf.sprintf "%s.%d" n i, m)) named
      in
      let h = Hg.Hypergraph.of_named_edges named in
      { hypergraph = Some h; warnings = List.rev !warnings }
    end
  end

let statement_to_hypergraphs ?schema stmt =
  let { Transform.simples; schema; warnings = w0 } =
    Transform.extract ?schema stmt
  in
  List.map
    (fun { Transform.id; select } ->
      (* The converter interprets exactly the conjunctive core (only
         equality conjuncts merge or delete vertices), but sees the full
         query so that attribute inference for schemaless relations also
         picks up columns used in dropped predicates. *)
      let conv = select_to_hypergraph ~schema select in
      let conv =
        if id = "q" then { conv with warnings = w0 @ conv.warnings } else conv
      in
      (id, conv))
    simples

let sql_to_hypergraphs_report ?schema src =
  match Parser.parse_report src with
  | Error _ as e -> e
  | Ok stmt -> Ok (statement_to_hypergraphs ?schema stmt)
