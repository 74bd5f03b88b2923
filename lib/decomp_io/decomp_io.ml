module Bitset = Kit.Bitset
module Hypergraph = Hg.Hypergraph

(* Names are emitted bare only when no character could collide with the
   format's own punctuation (',', '{', '}', '[', ']', '~', '"', spaces);
   anything else is '"'-quoted with '\' escaping '"' and '\' — the same
   convention as [Hypergraph.pp] — so to_text/of_text round-trips
   arbitrary names exactly. The bare alphabet here is stricter than the
   hypergraph format's (no '[' / ']'), because this format uses brackets
   as delimiters. *)
let is_bare_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = ':' || c = '.' || c = '\''

let quote_name name =
  if name <> "" && String.for_all is_bare_char name then name
  else begin
    let buf = Buffer.create (String.length name + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' | '\\' ->
            Buffer.add_char buf '\\';
            Buffer.add_char buf c
        (* The format is line-oriented (indentation = tree depth), so a
           raw newline inside a quoted name would tear the node line;
           control characters are escaped, unlike in [Hypergraph.pp]
           whose lexer spans lines. *)
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      name;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_text h (d : Decomp.t) =
  let buf = Buffer.create 256 in
  let rec go depth (u : Decomp.node) =
    Buffer.add_string buf (String.make (2 * depth) ' ');
    let bag =
      Bitset.to_list u.Decomp.bag
      |> List.map (fun v -> quote_name (Hypergraph.vertex_name h v))
      |> String.concat ", "
    in
    let cover_elt (c : Decomp.cover_elt) =
      match c.Decomp.source with
      | Decomp.Original e -> quote_name (Hypergraph.edge_name h e)
      | Decomp.Subedge e ->
          Printf.sprintf "%s~{%s}"
            (quote_name (Hypergraph.edge_name h e))
            (Bitset.to_list c.Decomp.vertices
            |> List.map (fun v -> quote_name (Hypergraph.vertex_name h v))
            |> String.concat ",")
      | Decomp.Special -> "__special"
    in
    Buffer.add_string buf
      (Printf.sprintf "{%s} [%s]\n" bag
         (String.concat ", " (List.map cover_elt u.Decomp.cover)));
    List.iter (go (depth + 1)) u.Decomp.children
  in
  go 0 d;
  Buffer.contents buf

(* --- parsing ------------------------------------------------------------- *)

(* Name -> id for the vertices and for the edges, built once per
   [of_text] call; the lowest id wins should a name repeat, as a scan
   from the front would find. *)
type index = {
  vertices : (string, int) Hashtbl.t;
  edges : (string, int) Hashtbl.t;
}

let index_names names =
  let t = Hashtbl.create (Array.length names) in
  for i = Array.length names - 1 downto 0 do
    Hashtbl.replace t names.(i) i
  done;
  t

let index h =
  {
    vertices = index_names h.Hypergraph.vertex_names;
    edges = index_names h.Hypergraph.edge_names;
  }

(* One node line is "{bag} [cover]". A tiny cursor-based lexer handles
   quoted names (whose content may contain any delimiter); bare names
   are read up to the context's terminator characters and trimmed, which
   keeps files written before quoting existed parsing as they did. *)
let parse_line h idx line =
  let line_body = String.trim line in
  let len = String.length line_body in
  let pos = ref 0 in
  let fail msg = Error (Printf.sprintf "%s in node line: %s" msg line_body) in
  let looking_at c = !pos < len && line_body.[!pos] = c in
  let skip_ws () =
    while !pos < len && (line_body.[!pos] = ' ' || line_body.[!pos] = '\t') do
      incr pos
    done
  in
  let expect c =
    if looking_at c then begin
      incr pos;
      Ok ()
    end
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  (* A quoted string, or a bare run up to (not including) any char of
     [terms], right-trimmed. [Ok None] when the name is empty. *)
  let name_token terms =
    skip_ws ();
    if looking_at '"' then begin
      incr pos;
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= len then fail "unterminated quoted name"
        else
          match line_body.[!pos] with
          | '"' ->
              incr pos;
              Ok (Some (Buffer.contents buf))
          | '\\' when !pos + 1 < len ->
              Buffer.add_char buf
                (match line_body.[!pos + 1] with
                | 'n' -> '\n'
                | 'r' -> '\r'
                | 't' -> '\t'
                | c -> c);
              pos := !pos + 2;
              go ()
          | '\\' -> fail "unterminated quoted name"
          | c ->
              Buffer.add_char buf c;
              incr pos;
              go ()
      in
      go ()
    end
    else begin
      let start = !pos in
      (* [String.contains] would raise and catch Not_found per byte *)
      while
        !pos < len && Option.is_none (String.index_opt terms line_body.[!pos])
      do
        incr pos
      done;
      match String.trim (String.sub line_body start (!pos - start)) with
      | "" -> Ok None
      | name -> Ok (Some name)
    end
  in
  (* Comma-separated names until the closing character, which is left
     unconsumed. *)
  let name_list terms close =
    let rec go acc =
      skip_ws ();
      if looking_at close && acc = [] then Ok []
      else
        let* name = name_token terms in
        match name with
        | None -> fail "expected a name"
        | Some name -> (
            skip_ws ();
            if looking_at ',' then begin
              incr pos;
              go (name :: acc)
            end
            else if looking_at close then Ok (List.rev (name :: acc))
            else fail (Printf.sprintf "expected ',' or '%c'" close))
    in
    go []
  in
  let vertex name =
    match Hashtbl.find_opt idx.vertices name with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "unknown vertex %s" name)
  in
  let edge name =
    match Hashtbl.find_opt idx.edges name with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "unknown edge %s" name)
  in
  let rec map_all f = function
    | [] -> Ok []
    | x :: rest ->
        let* y = f x in
        let* ys = map_all f rest in
        Ok (y :: ys)
  in
  let cover_elt () =
    let start = !pos in
    let* name = name_token ",]~" in
    match name with
    | None -> fail "expected a cover edge name"
    | Some name ->
        skip_ws ();
        if looking_at '~' then begin
          incr pos;
          let* () = expect '{' in
          let* inner = name_list ",}" '}' in
          let* () = expect '}' in
          let label =
            String.trim (String.sub line_body start (!pos - start))
          in
          let* e = edge name in
          let* vs = map_all vertex inner in
          Ok
            {
              Decomp.label;
              vertices = Bitset.of_list h.Hypergraph.n_vertices vs;
              source = Decomp.Subedge e;
            }
        end
        else
          let* e = edge name in
          Ok
            {
              Decomp.label = name;
              vertices = Hypergraph.edge h e;
              source = Decomp.Original e;
            }
  in
  let* () = expect '{' in
  let* bag_names = name_list ",}" '}' in
  let* () = expect '}' in
  skip_ws ();
  let* () = expect '[' in
  let* cover =
    let rec go acc =
      skip_ws ();
      if looking_at ']' && acc = [] then Ok []
      else
        let* c = cover_elt () in
        skip_ws ();
        if looking_at ',' then begin
          incr pos;
          go (c :: acc)
        end
        else if looking_at ']' then Ok (List.rev (c :: acc))
        else fail "expected ',' or ']'"
    in
    go []
  in
  let* () = expect ']' in
  skip_ws ();
  if !pos <> len then fail "trailing characters"
  else
    let* bag_ids = map_all vertex bag_names in
    Ok (Bitset.of_list h.Hypergraph.n_vertices bag_ids, cover)

let indent_of line =
  let i = ref 0 in
  while !i < String.length line && line.[!i] = ' ' do incr i done;
  !i / 2

let of_text h text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty decomposition"
  | _ -> (
      (* Parse into (depth, bag, cover) triples, then fold into a tree via
         a stack of (depth, pending children) frames. *)
      let idx = index h in
      let rec parse_all acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
            match parse_line h idx line with
            | Error _ as e -> e
            | Ok (bag, cover) -> parse_all ((indent_of line, bag, cover) :: acc) rest)
      in
      match parse_all [] lines with
      | Error m -> Error m
      | Ok [] -> Error "empty decomposition"
      | Ok ((d0, _, _) :: _) when d0 <> 0 -> Error "first node must be unindented"
      | Ok triples ->
          (* Build recursively: node at depth d owns following nodes of
             depth > d until one of depth <= d appears. *)
          let rec build depth = function
            | (d, bag, cover) :: rest when d = depth ->
                let children, rest' = build_children (depth + 1) rest in
                (Some ({ Decomp.bag; cover; children } : Decomp.node), rest')
            | rest -> (None, rest)
          and build_children depth rest =
            match build depth rest with
            | Some node, rest' ->
                let siblings, rest'' = build_children depth rest' in
                (node :: siblings, rest'')
            | None, rest' -> ([], rest')
          in
          (match build 0 triples with
          | Some root, [] -> Ok root
          | Some _, _ :: _ -> Error "multiple roots or bad indentation"
          | None, _ -> Error "no root node"))
