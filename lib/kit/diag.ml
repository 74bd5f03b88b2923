type span = { start : int; stop : int }

type t = { span : span; message : string }

let span start stop =
  let start = max 0 start in
  let stop = max start stop in
  { start; stop }

let point off = span off off

let error sp message = { span = sp; message }

let errorf sp fmt = Printf.ksprintf (error sp) fmt

let compare a b =
  match Stdlib.compare a.span.start b.span.start with
  | 0 -> (
      match Stdlib.compare a.span.stop b.span.stop with
      | 0 -> String.compare a.message b.message
      | c -> c)
  | c -> c

type position = { line : int; col : int }

let position source offset =
  let offset = min (max 0 offset) (String.length source) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to offset - 1 do
    if source.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; col = offset - !bol + 1 }

let prefix ?file ~source d =
  let p = position source d.span.start in
  match file with
  | Some f when f <> "" -> Printf.sprintf "%s:%d:%d" f p.line p.col
  | _ -> Printf.sprintf "%d:%d" p.line p.col

let one_line ?file ~source d =
  Printf.sprintf "%s: error: %s" (prefix ?file ~source d) d.message

(* Bounds of the source line containing [offset]: [bol, eol) excluding
   the newline itself. *)
let line_bounds source offset =
  let n = String.length source in
  let offset = min (max 0 offset) n in
  let bol = ref offset in
  while !bol > 0 && source.[!bol - 1] <> '\n' do decr bol done;
  let eol = ref offset in
  while !eol < n && source.[!eol] <> '\n' do incr eol done;
  (!bol, !eol)

(* Window a long line around the span so huge single-line inputs still
   render short reports. *)
let window = 120

let printable_char c = if c >= ' ' && c <> '\x7f' then c else '?'

let render ?file ~source d =
  let p = position source d.span.start in
  let bol, eol = line_bounds source d.span.start in
  let lo = max bol (d.span.start - (window / 2)) in
  let hi = min eol (max (d.span.start + window) (lo + window)) in
  let text = String.sub source lo (hi - lo) in
  let text = String.map printable_char text in
  let pre = if lo > bol then "..." else "" in
  let post = if hi < eol then "..." else "" in
  let gutter = Printf.sprintf "%4d | " p.line in
  let pad = String.make (String.length gutter - 2) ' ' ^ "| " in
  let caret_at = String.length pre + (d.span.start - lo) in
  let caret_len =
    let stop = min d.span.stop hi in
    max 1 (stop - d.span.start)
  in
  Printf.sprintf "%s\n%s%s%s%s\n%s%s%s\n"
    (one_line ?file ~source d)
    gutter pre text post
    pad (String.make caret_at ' ') (String.make caret_len '^')

let sorted ds = List.stable_sort compare ds

let render_all ?file ~source ds =
  String.concat "" (List.map (render ?file ~source) (sorted ds))

let to_message ?file ~source = function
  | [] -> "parse error"
  | ds -> (
      match sorted ds with
      | [] -> "parse error"
      | [ d ] -> one_line ?file ~source d
      | d :: rest ->
          let n = List.length rest in
          Printf.sprintf "%s (+%d more error%s)" (one_line ?file ~source d) n
            (if n = 1 then "" else "s"))

let to_json ~source d =
  let p = position source d.span.start in
  Json.Obj
    [
      ("severity", Json.String "error");
      ("line", Json.Int p.line);
      ("col", Json.Int p.col);
      ("offset", Json.Int d.span.start);
      ("end_offset", Json.Int d.span.stop);
      ("message", Json.String d.message);
    ]

let all_to_json ~source ds =
  Json.List (List.map (to_json ~source) (sorted ds))
