module Bitset = Kit.Bitset

type t = {
  n_vertices : int;
  n_edges : int;
  edges : Bitset.t array;
  incidence : Bitset.t array;
  vertex_names : string array;
  edge_names : string array;
}

let create ~vertex_names ~edge_names members =
  let n_vertices = Array.length vertex_names in
  let n_edges = Array.length edge_names in
  if Array.length members <> n_edges then
    invalid_arg "Hypergraph.create: edge_names and members differ in length";
  let edges =
    Array.map
      (fun vs ->
        if vs = [] then invalid_arg "Hypergraph.create: empty edge";
        List.iter
          (fun v ->
            if v < 0 || v >= n_vertices then
              invalid_arg "Hypergraph.create: vertex id out of range")
          vs;
        Bitset.of_list n_vertices vs)
      members
  in
  (* Distinct sets per vertex: they are filled in place below. *)
  let incidence = Array.init n_vertices (fun _ -> Bitset.empty n_edges) in
  Array.iteri
    (fun e vs -> Bitset.iter (fun v -> Bitset.add_in_place e incidence.(v)) vs)
    edges;
  { n_vertices; n_edges; edges; incidence; vertex_names; edge_names }

let of_named_edges pairs =
  let names = Kit.Names.create () in
  let members =
    List.map (fun (_, vs) -> List.map (Kit.Names.intern names) vs) pairs
  in
  create
    ~vertex_names:(Kit.Names.to_array names)
    ~edge_names:(Array.of_list (List.map fst pairs))
    (Array.of_list members)

let of_int_edges edges =
  let n_vertices =
    List.fold_left (fun m vs -> List.fold_left (fun m v -> Stdlib.max m (v + 1)) m vs) 0 edges
  in
  create
    ~vertex_names:(Array.init n_vertices (Printf.sprintf "v%d"))
    ~edge_names:(Array.init (List.length edges) (Printf.sprintf "e%d"))
    (Array.of_list edges)

let edge h e = h.edges.(e)
let all_edges h = Bitset.full h.n_edges
let vertex_name h v = h.vertex_names.(v)
let edge_name h e = h.edge_names.(e)

(* The two folds below are the innermost operations of every search core
   (component BFS, cover evaluation); they accumulate into one buffer —
   one allocation per call for the [_of_]/[_touching] forms, none for the
   [_into] forms. *)

let vertices_of_edges_into h es ~into =
  if Bitset.universe into <> h.n_vertices then
    invalid_arg "Hypergraph.vertices_of_edges_into: universe mismatch";
  Bitset.clear into;
  Bitset.union_indexed_into ~into h.edges es

let vertices_of_edges h es =
  let acc = Bitset.empty h.n_vertices in
  Bitset.union_indexed_into ~into:acc h.edges es;
  acc

let edges_touching_into h vs ~into =
  if Bitset.universe into <> h.n_edges then
    invalid_arg "Hypergraph.edges_touching_into: universe mismatch";
  Bitset.clear into;
  Bitset.union_indexed_into ~into h.incidence vs

let edges_touching h vs =
  let acc = Bitset.empty h.n_edges in
  Bitset.union_indexed_into ~into:acc h.incidence vs;
  acc

let arity h =
  Array.fold_left (fun m e -> Stdlib.max m (Bitset.cardinal e)) 0 h.edges

let dedup_edges h =
  let seen = Hashtbl.create 16 in
  let keep = ref [] in
  Array.iteri
    (fun i e ->
      let key = Bitset.to_list e in
      if key <> [] && not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        keep := i :: !keep
      end)
    h.edges;
  let keep = Array.of_list (List.rev !keep) in
  create ~vertex_names:h.vertex_names
    ~edge_names:(Array.map (fun i -> h.edge_names.(i)) keep)
    (Array.map (fun i -> Bitset.to_list h.edges.(i)) keep)

let compact h =
  let live = Array.map (fun inc -> not (Bitset.is_empty inc)) h.incidence in
  if Array.for_all Fun.id live then h
  else begin
    let renumber = Array.make h.n_vertices (-1) in
    let names = ref [] in
    let next = ref 0 in
    Array.iteri
      (fun v alive ->
        if alive then begin
          renumber.(v) <- !next;
          names := h.vertex_names.(v) :: !names;
          incr next
        end)
      live;
    create
      ~vertex_names:(Array.of_list (List.rev !names))
      ~edge_names:h.edge_names
      (Array.map
         (fun e -> List.map (fun v -> renumber.(v)) (Bitset.to_list e))
         h.edges)
  end

(* Compare via vertex names so the relation is stable under renumbering
   (e.g. format round-trips that intern vertices in a different order). *)
let equal_structure a b =
  a.n_vertices = b.n_vertices && a.n_edges = b.n_edges
  && begin
       let canon h =
         Array.to_list h.edges
         |> List.map (fun e ->
                List.sort compare
                  (List.map (fun v -> h.vertex_names.(v)) (Bitset.to_list e)))
         |> List.sort compare
       in
       canon a = canon b
     end

(* The canonical fingerprint: a 64-bit digest of the sorted edge
   multiset over vertex *names* — the same canon [equal_structure]
   compares — so it is invariant under any vertex or edge
   renumbering/reordering, yet distinguishes structurally distinct
   graphs (including duplicate-edge multiplicity, which [dedup_edges]
   erases). Every variable-length field is length-framed, making the
   hashed byte stream injective in the canon. Persisted on disk (result
   cache keys, packed-repository entries), so the digest must never
   change across versions — it is pinned by tests. *)
let fingerprint h =
  let canon =
    Array.to_list h.edges
    |> List.map (fun e ->
           List.sort compare
             (List.map (fun v -> h.vertex_names.(v)) (Bitset.to_list e)))
    |> List.sort compare
  in
  let open Kit.Hash64 in
  List.fold_left
    (fun acc edge ->
      let acc = add_int acc (List.length edge) in
      List.fold_left
        (fun acc name -> add_string (add_int acc (String.length name)) name)
        acc edge)
    (add_int init (List.length canon))
    canon
  |> to_hex

(* --- text format --------------------------------------------------------- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = ':' || c = '.' || c = '[' || c = ']' || c = '\''

(* Names outside the identifier alphabet (space, '(', ',', '%', ...)
   would be emitted verbatim and then fail or mis-split on re-parse; they
   are quoted instead, with '\' escaping '"' and '\', so to_string/parse
   round-trips arbitrary names exactly. *)
let quote_name name =
  if name <> "" && String.for_all is_ident_char name then name
  else begin
    let buf = Buffer.create (String.length name + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' || c = '\\' then Buffer.add_char buf '\\';
        Buffer.add_char buf c)
      name;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let pp fmt h =
  let n = h.n_edges in
  Array.iteri
    (fun i e ->
      let vs =
        Bitset.to_list e |> List.map (fun v -> quote_name h.vertex_names.(v))
      in
      Format.fprintf fmt "%s(%s)%s@."
        (quote_name h.edge_names.(i))
        (String.concat "," vs)
        (if i = n - 1 then "." else ","))
    h.edges

let to_string h = Format.asprintf "%a" pp h

(* --- parsing ------------------------------------------------------------ *)

exception Hg_error of Kit.Diag.t

let parse_report text =
  let pos = ref 0 in
  let len = String.length text in
  let diags = ref [] in
  let ndiags = ref 0 in
  let max_errors = 20 in
  let record d =
    if !ndiags < max_errors then begin
      diags := d :: !diags;
      incr ndiags
    end
  in
  let error ?start msg =
    let span =
      match start with
      | Some s -> Kit.Diag.span s !pos
      | None -> Kit.Diag.point !pos
    in
    raise (Hg_error (Kit.Diag.error span msg))
  in
  let skip_ws () =
    let continue = ref true in
    while !continue do
      continue := false;
      while !pos < len && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        incr pos
      done;
      if !pos < len && text.[!pos] = '%' then begin
        while !pos < len && text.[!pos] <> '\n' do incr pos done;
        continue := true
      end
    done
  in
  let ident () =
    let start = !pos in
    while !pos < len && is_ident_char text.[!pos] do incr pos done;
    if !pos = start then None else Some (String.sub text start (!pos - start))
  in
  (* A name is either a bare identifier or a '"'-quoted string with '\'
     escapes (the form [pp] emits for names outside the identifier
     alphabet). Raises on an unterminated quote; a plain missing name
     is [None] so callers keep their own diagnostics. *)
  let name_token () =
    if !pos < len && text.[!pos] = '"' then begin
      let start = !pos in
      incr pos;
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= len then error ~start "unterminated quoted name"
        else
          match text.[!pos] with
          | '"' ->
              incr pos;
              Some (Buffer.contents buf)
          | '\\' when !pos + 1 < len ->
              Buffer.add_char buf text.[!pos + 1];
              pos := !pos + 2;
              go ()
          | '\\' -> error ~start "unterminated quoted name"
          | c ->
              Buffer.add_char buf c;
              incr pos;
              go ()
      in
      go ()
    end
    else ident ()
  in
  let parse_edge () =
    match name_token () with
    | None -> error "expected edge name"
    | Some name ->
        skip_ws ();
        if !pos >= len || text.[!pos] <> '(' then error "expected '('"
        else begin
          incr pos;
          let rec verts vacc =
            skip_ws ();
            match name_token () with
            | None -> error "expected vertex name"
            | Some v -> (
                skip_ws ();
                if !pos < len && text.[!pos] = ',' then begin
                  incr pos;
                  verts (v :: vacc)
                end
                else if !pos < len && text.[!pos] = ')' then begin
                  incr pos;
                  List.rev (v :: vacc)
                end
                else error "expected ',' or ')'")
          in
          (name, verts [])
        end
  in
  (* Panic-mode sync after a broken edge: swallow up to the edge's
     closing ')' (plus a following ','), or a bare ',' or the final
     '.', so the next edge can still be tried and one pass reports
     every broken atom. Always makes progress. *)
  let sync_edge () =
    while
      !pos < len
      && (match text.[!pos] with ',' | ')' | '.' -> false | _ -> true)
    do
      incr pos
    done;
    if !pos < len then begin
      match text.[!pos] with
      | ')' ->
          incr pos;
          skip_ws ();
          if !pos < len && text.[!pos] = ',' then incr pos
      | ',' | '.' -> incr pos
      | _ -> ()
    end
  in
  let rec atoms acc =
    skip_ws ();
    if !pos >= len || !ndiags >= max_errors then List.rev acc
    else
      match parse_edge () with
      | exception Hg_error d ->
          record d;
          sync_edge ();
          atoms acc
      | (name, vs) ->
          skip_ws ();
          if !pos < len && text.[!pos] = ',' then begin
            incr pos;
            atoms ((name, vs) :: acc)
          end
          else if !pos < len && text.[!pos] = '.' then begin
            incr pos;
            skip_ws ();
            if !pos < len then begin
              record
                (Kit.Diag.error (Kit.Diag.span !pos len)
                   "trailing input after '.'");
              pos := len
            end;
            List.rev ((name, vs) :: acc)
          end
          else if !pos >= len then List.rev ((name, vs) :: acc)
          else begin
            record
              (Kit.Diag.error (Kit.Diag.point !pos)
                 "expected ',' or '.' after edge");
            atoms ((name, vs) :: acc)
          end
  in
  match Kit.Limits.check_input text with
  | Some d -> Error [ d ]
  | None -> (
      let pairs = atoms [] in
      match List.rev !diags with
      | _ :: _ as ds -> Error ds
      | [] -> (
          if pairs = [] then
            Error [ Kit.Diag.error (Kit.Diag.point 0) "empty hypergraph" ]
          else
            try Ok (of_named_edges pairs)
            with Invalid_argument m ->
              Error [ Kit.Diag.error (Kit.Diag.point 0) m ]))
