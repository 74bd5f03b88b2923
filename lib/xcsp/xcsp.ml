type instance = {
  name : string;
  variables : string list;
  scopes : string list list;
}

(* An <array size="..."> expands to one variable name per cell, so the
   cell count is an allocation the input controls directly; cap it so a
   "size=\"[999999999]\"" bomb is ignored like any other malformed size
   instead of eating the heap. *)
let max_array_cells = 1_000_000

(* "[3]" -> [3]; "[2][4]" -> [2;4] *)
let parse_dims s =
  let s = String.trim s in
  let out = ref [] in
  let i = ref 0 in
  let ok = ref true in
  let len = String.length s in
  while !ok && !i < len do
    if s.[!i] <> '[' then ok := false
    else begin
      let close = try String.index_from s !i ']' with Not_found -> -1 in
      if close < 0 then ok := false
      else begin
        (match int_of_string_opt (String.sub s (!i + 1) (close - !i - 1)) with
        | Some n when n > 0 -> out := n :: !out
        | _ -> ok := false);
        i := close + 1
      end
    end
  done;
  if !ok && !out <> [] then begin
    let cells =
      List.fold_left
        (fun acc n ->
          if acc > max_array_cells / n then max_array_cells + 1 else acc * n)
        1 !out
    in
    if cells > max_array_cells then None else Some (List.rev !out)
  end
  else None

let expand_array id dims =
  let rec go prefix = function
    | [] -> [ prefix ]
    | d :: rest ->
        List.concat (List.init d (fun i -> go (Printf.sprintf "%s[%d]" prefix i) rest))
  in
  go id dims

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

(* Tokens that look like variable references: name, name[i], name[i][j]. *)
let scope_tokens text =
  let is_token_char c = is_ident_char c || c = '[' || c = ']' in
  let len = String.length text in
  let out = ref [] in
  let i = ref 0 in
  while !i < len do
    if is_token_char text.[!i] then begin
      let start = !i in
      while !i < len && is_token_char text.[!i] do incr i done;
      out := String.sub text start (!i - start) :: !out
    end
    else incr i
  done;
  List.rev !out

let analyze root =
  match Xml.tag root with
      | Some "instance" -> (
          let name = Option.value (Xml.attr root "id") ~default:"instance" in
          match Xml.find_child root "variables" with
          | None -> Error "XCSP: missing <variables>"
          | Some vars_el -> (
              let variables =
                List.concat_map
                  (fun child ->
                    match (Xml.tag child, Xml.attr child "id") with
                    | Some "var", Some id -> [ id ]
                    | Some "array", Some id -> (
                        match Xml.attr child "size" with
                        | Some size -> (
                            match parse_dims size with
                            | Some dims -> expand_array id dims
                            | None -> [])
                        | None -> [])
                    | _ -> [])
                  (Xml.children vars_el)
              in
              match Xml.find_child root "constraints" with
              | None -> Error "XCSP: missing <constraints>"
              | Some cons_el ->
                  let declared = Hashtbl.create 64 in
                  List.iter (fun v -> Hashtbl.replace declared v ()) variables;
                  (* Array bases, for whole-array references like "y[]". *)
                  let array_bases = Hashtbl.create 8 in
                  List.iter
                    (fun v ->
                      match String.index_opt v '[' with
                      | Some i ->
                          let base = String.sub v 0 i in
                          Hashtbl.replace array_bases base
                            (v :: (Option.value (Hashtbl.find_opt array_bases base) ~default:[]))
                      | None -> ())
                    variables;
                  let scope_of_text text =
                    List.concat_map
                      (fun tok ->
                        if Hashtbl.mem declared tok then [ tok ]
                        else if String.length tok > 2
                                && String.sub tok (String.length tok - 2) 2 = "[]"
                        then
                          let base = String.sub tok 0 (String.length tok - 2) in
                          List.rev
                            (Option.value (Hashtbl.find_opt array_bases base) ~default:[])
                        else [])
                      (scope_tokens text)
                    |> List.sort_uniq String.compare
                  in
                  let scopes = ref [] in
                  let rec walk node =
                    match Xml.tag node with
                    | Some "block" -> List.iter walk (Xml.children node)
                    | Some "group" -> (
                        (* Template + one <args> per instantiation: scope =
                           template variables ∪ args variables. *)
                        let args = Xml.find_children node "args" in
                        let template_text =
                          String.concat " "
                            (List.filter_map
                               (fun c ->
                                 if Xml.tag c = Some "args" then None
                                 else Some (Xml.text_content c))
                               (Xml.children node))
                        in
                        let template_scope = scope_of_text template_text in
                        match args with
                        | [] -> if template_scope <> [] then scopes := template_scope :: !scopes
                        | _ ->
                            List.iter
                              (fun a ->
                                let s =
                                  List.sort_uniq String.compare
                                    (template_scope @ scope_of_text (Xml.text_content a))
                                in
                                if s <> [] then scopes := s :: !scopes)
                              args)
                    | Some _ ->
                        let s = scope_of_text (Xml.text_content node) in
                        if s <> [] then scopes := s :: !scopes
                    | None -> ()
                  in
                  List.iter walk (Xml.children cons_el);
                  Ok { name; variables; scopes = List.rev !scopes }))
  | Some t -> Error (Printf.sprintf "XCSP: unexpected root element <%s>" t)
  | None -> Error "XCSP: no root element"

let parse_report src =
  match Xml.parse_report src with
  | Error _ as e -> e
  | Ok root -> (
      match analyze root with
      | Ok _ as ok -> ok
      | Error msg ->
          (* Semantic errors have no better anchor than the document
             start; they still travel in the one diagnostic shape. *)
          Error [ Kit.Diag.error (Kit.Diag.point 0) msg ])

(* Every scope name is declared: [analyze] keeps only declared
   variables and the cells of declared arrays. *)
let to_hypergraph inst =
  if inst.scopes = [] then Error "XCSP: no constraints"
  else
    Ok
      (Hg.Hypergraph.of_named_edges
         (List.mapi (fun i scope -> ("c" ^ string_of_int i, scope)) inst.scopes))

let read_report src =
  match parse_report src with
  | Error _ as e -> e
  | Ok inst -> (
      match to_hypergraph inst with
      | Ok _ as ok -> ok
      | Error msg -> Error [ Kit.Diag.error (Kit.Diag.point 0) msg ])

(* The reader only sees [A-Za-z0-9_] runs as variable references (see
   [scope_tokens]; brackets belong to array cells), so any other name —
   e.g. the dotted column names of SQL-derived hypergraphs — would vanish
   from every scope. *)
let is_identifier name = name <> "" && String.for_all is_ident_char name

let identifiers h =
  let names = h.Hg.Hypergraph.vertex_names in
  let taken = Hashtbl.create (Array.length names) in
  Array.iter (fun n -> if is_identifier n then Hashtbl.replace taken n ()) names;
  let fresh base =
    let rec go i =
      let cand = Printf.sprintf "%s_%d" base i in
      if Hashtbl.mem taken cand then go (i + 1) else cand
    in
    let id = if Hashtbl.mem taken base then go 1 else base in
    Hashtbl.replace taken id ();
    id
  in
  Array.map
    (fun n ->
      if is_identifier n then n
      else if n = "" then fresh "v"
      else fresh (String.map (fun c -> if is_ident_char c then c else '_') n))
    names

let to_xml ~name h =
  let ids = identifiers h in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "<instance id=\"%s\" format=\"XCSP3\" type=\"CSP\">\n  <variables>\n" name);
  Array.iter
    (fun v ->
      Buffer.add_string buf
        (Printf.sprintf "    <var id=\"%s\"> 0..1 </var>\n" v))
    ids;
  Buffer.add_string buf "  </variables>\n  <constraints>\n";
  Array.iter
    (fun e ->
      let scope =
        Kit.Bitset.to_list e |> List.map (fun v -> ids.(v)) |> String.concat " "
      in
      Buffer.add_string buf
        (Printf.sprintf
           "    <extension>\n      <list> %s </list>\n      <supports> </supports>\n    </extension>\n"
           scope))
    h.Hg.Hypergraph.edges;
  Buffer.add_string buf "  </constraints>\n</instance>\n";
  Buffer.contents buf
