type node =
  | Element of string * (string * string) list * node list
  | Text of string

exception Xml_error of Kit.Diag.t

let decode_entities s =
  if not (String.contains s '&') then s
  else begin
    let buf = Buffer.create (String.length s) in
    let i = ref 0 in
    let len = String.length s in
    while !i < len do
      if s.[!i] = '&' then begin
        let close = try String.index_from s !i ';' with Not_found -> -1 in
        if close < 0 then begin
          Buffer.add_char buf '&';
          incr i
        end
        else begin
          let entity = String.sub s (!i + 1) (close - !i - 1) in
          (match entity with
          | "lt" -> Buffer.add_char buf '<'
          | "gt" -> Buffer.add_char buf '>'
          | "amp" -> Buffer.add_char buf '&'
          | "quot" -> Buffer.add_char buf '"'
          | "apos" -> Buffer.add_char buf '\''
          | _ -> Buffer.add_string buf (String.sub s !i (close - !i + 1)));
          i := close + 1
        end
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    Buffer.contents buf
  end

let parse_report src =
  let len = String.length src in
  let pos = ref 0 in
  let max_depth = Kit.Config.parse_depth () in
  let error msg =
    raise (Xml_error (Kit.Diag.error (Kit.Diag.point !pos) msg))
  in
  let error_at start msg =
    raise (Xml_error (Kit.Diag.error (Kit.Diag.span start !pos) msg))
  in
  let peek_char () = if !pos < len then Some src.[!pos] else None in
  let skip_ws () =
    while
      !pos < len
      && (match src.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let starts_with prefix =
    !pos + String.length prefix <= len
    && String.sub src !pos (String.length prefix) = prefix
  in
  let skip_until close =
    match
      let rec search i =
        if i + String.length close > len then None
        else if String.sub src i (String.length close) = close then Some i
        else search (i + 1)
      in
      search !pos
    with
    | Some i -> pos := i + String.length close
    | None ->
        let start = !pos in
        pos := len;
        error_at start (Printf.sprintf "missing %s" close)
  in
  let is_name_char c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
    || c = '_' || c = '-' || c = ':' || c = '.'
  in
  let name () =
    let start = !pos in
    while !pos < len && is_name_char src.[!pos] do incr pos done;
    if !pos = start then error "expected name";
    String.sub src start (!pos - start)
  in
  let attribute () =
    let n = name () in
    skip_ws ();
    if peek_char () <> Some '=' then error "expected '='";
    incr pos;
    skip_ws ();
    match peek_char () with
    | Some (('"' | '\'') as q) ->
        let start = !pos in
        incr pos;
        let close = try String.index_from src !pos q with Not_found -> -1 in
        if close < 0 then begin
          pos := len;
          error_at start "unterminated attribute value"
        end;
        let v = String.sub src !pos (close - !pos) in
        pos := close + 1;
        (n, decode_entities v)
    | _ -> error "expected quoted attribute value"
  in
  let rec skip_misc () =
    skip_ws ();
    if starts_with "<!--" then begin
      skip_until "-->";
      skip_misc ()
    end
    else if starts_with "<?" then begin
      skip_until "?>";
      skip_misc ()
    end
    else if starts_with "<!" then begin
      skip_until ">";
      skip_misc ()
    end
  in
  let cdata () =
    (* Caller matched "<![CDATA[". Contents are literal: no entity
       decoding, no nesting — the section ends at the first "]]>". *)
    pos := !pos + 9;
    let start = !pos in
    let rec search i =
      if i + 3 > len then begin
        pos := len;
        error_at start "missing ]]>"
      end
      else if String.sub src i 3 = "]]>" then i
      else search (i + 1)
    in
    let stop = search !pos in
    let text = String.sub src start (stop - start) in
    pos := stop + 3;
    text
  in
  let rec element depth =
    if depth >= max_depth then
      raise (Xml_error (Kit.Limits.depth_error ~at:!pos));
    if peek_char () <> Some '<' then error "expected '<'";
    incr pos;
    let tag = name () in
    let rec attrs acc =
      skip_ws ();
      match peek_char () with
      | Some '>' ->
          incr pos;
          (List.rev acc, `Open)
      | Some '/' ->
          incr pos;
          if peek_char () = Some '>' then begin
            incr pos;
            (List.rev acc, `Selfclosing)
          end
          else error "expected '/>'"
      | Some _ -> attrs (attribute () :: acc)
      | None -> error "unterminated tag"
    in
    let attributes, kind = attrs [] in
    match kind with
    | `Selfclosing -> Element (tag, attributes, [])
    | `Open ->
        let children = content depth tag [] in
        Element (tag, attributes, children)
  and content depth closing acc =
    if !pos >= len then error (Printf.sprintf "missing </%s>" closing)
    else if starts_with "<!--" then begin
      skip_until "-->";
      content depth closing acc
    end
    else if starts_with "<![CDATA[" then
      content depth closing (Text (cdata ()) :: acc)
    else if starts_with "</" then begin
      pos := !pos + 2;
      let n = name () in
      skip_ws ();
      if peek_char () <> Some '>' then error "expected '>'";
      incr pos;
      if n <> closing then
        error (Printf.sprintf "mismatched </%s>, expected </%s>" n closing);
      List.rev acc
    end
    else if peek_char () = Some '<' then
      content depth closing (element (depth + 1) :: acc)
    else begin
      let start = !pos in
      while !pos < len && src.[!pos] <> '<' do incr pos done;
      let text = String.sub src start (!pos - start) in
      if String.trim text = "" then content depth closing acc
      else content depth closing (Text (decode_entities text) :: acc)
    end
  in
  match Kit.Limits.check_input src with
  | Some d -> Error [ d ]
  | None -> (
      try
        skip_misc ();
        let root = element 0 in
        skip_misc ();
        if !pos < len then
          Error
            [ Kit.Diag.error (Kit.Diag.point !pos)
                "trailing content after root element" ]
        else Ok root
      with Xml_error d -> Error [ d ])

let tag = function Element (t, _, _) -> Some t | Text _ -> None

let attr n key =
  match n with
  | Element (_, attrs, _) -> List.assoc_opt key attrs
  | Text _ -> None

let children = function Element (_, _, c) -> c | Text _ -> []

let rec text_content = function
  | Text t -> t
  | Element (_, _, c) -> String.concat " " (List.map text_content c)

let find_children n t =
  List.filter (fun c -> tag c = Some t) (children n)

let find_child n t = match find_children n t with [] -> None | c :: _ -> Some c
