type token =
  | Ident of string
  | Number of string
  | String of string
  | Punct of string
  | Eof

type spanned = { tok : token; span : Kit.Diag.span }

type t = { tokens : spanned array; mutable index : int }

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '$'

let is_digit c = c >= '0' && c <= '9'

(* One recovering pass: local lexical mistakes become diagnostics and
   scanning continues, so a broken file reports every bad literal in one
   go instead of stopping at the first. *)
let tokenize src =
  let len = String.length src in
  let out = ref [] in
  let diags = ref [] in
  let i = ref 0 in
  let emit start tok =
    out := { tok; span = Kit.Diag.span start !i } :: !out
  in
  let report start msg =
    diags := Kit.Diag.error (Kit.Diag.span start !i) msg :: !diags
  in
  let rec loop () =
    if !i >= len then ()
    else begin
      let c = src.[!i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then begin
        incr i;
        loop ()
      end
      else if c = '-' && !i + 1 < len && src.[!i + 1] = '-' then begin
        while !i < len && src.[!i] <> '\n' do incr i done;
        loop ()
      end
      else if c = '/' && !i + 1 < len && src.[!i + 1] = '*' then begin
        let start = !i in
        let closed = ref false in
        i := !i + 2;
        while (not !closed) && !i + 1 < len do
          if src.[!i] = '*' && src.[!i + 1] = '/' then begin
            closed := true;
            i := !i + 2
          end
          else incr i
        done;
        if not !closed then begin
          i := len;
          report start "unterminated comment"
        end;
        loop ()
      end
      else if is_ident_start c then begin
        let start = !i in
        while !i < len && is_ident_char src.[!i] do incr i done;
        emit start (Ident (String.sub src start (!i - start)));
        loop ()
      end
      else if is_digit c then begin
        let start = !i in
        while !i < len && (is_digit src.[!i] || src.[!i] = '.') do incr i done;
        emit start (Number (String.sub src start (!i - start)));
        loop ()
      end
      else if c = '\'' then begin
        (* SQL strings; '' escapes a quote. *)
        let start = !i in
        let buf = Buffer.create 16 in
        incr i;
        let rec scan () =
          if !i >= len then begin
            report start "unterminated string";
            emit start (String (Buffer.contents buf))
          end
          else if src.[!i] = '\'' then
            if !i + 1 < len && src.[!i + 1] = '\'' then begin
              Buffer.add_char buf '\'';
              i := !i + 2;
              scan ()
            end
            else begin
              incr i;
              emit start (String (Buffer.contents buf))
            end
          else begin
            Buffer.add_char buf src.[!i];
            incr i;
            scan ()
          end
        in
        scan ();
        loop ()
      end
      else if c = '"' then begin
        (* Double-quoted identifiers. *)
        let start = !i in
        let close =
          try String.index_from src (!i + 1) '"' with Not_found -> -1
        in
        if close < 0 then begin
          let rest = String.sub src (!i + 1) (len - !i - 1) in
          i := len;
          report start "unterminated quoted identifier";
          emit start (Ident rest)
        end
        else begin
          let name = String.sub src (!i + 1) (close - !i - 1) in
          i := close + 1;
          emit start (Ident name)
        end;
        loop ()
      end
      else begin
        let start = !i in
        let two = if !i + 1 < len then String.sub src !i 2 else "" in
        match two with
        | "<=" | ">=" | "<>" | "!=" | "==" | "||" ->
            i := !i + 2;
            emit start
              (Punct
                 (if two = "!=" then "<>" else if two = "==" then "=" else two));
            loop ()
        | _ -> (
            match c with
            | '(' | ')' | ',' | '.' | '=' | '<' | '>' | '+' | '-' | '*' | '/'
            | ';' | '%' ->
                incr i;
                emit start (Punct (String.make 1 c));
                loop ()
            | _ ->
                incr i;
                report start (Printf.sprintf "unexpected character %C" c);
                loop ())
      end
    end
  in
  loop ();
  let eof = { tok = Eof; span = Kit.Diag.point len } in
  (List.rev (eof :: !out), List.rev !diags)

let create src =
  match Kit.Limits.check_input src with
  | Some d -> Error d
  | None ->
      let tokens, diags = tokenize src in
      Ok ({ tokens = Array.of_list tokens; index = 0 }, diags)

let peek t = t.tokens.(t.index).tok

let peek_span t = t.tokens.(t.index).span

let prev_end t =
  if t.index = 0 then 0 else t.tokens.(t.index - 1).span.Kit.Diag.stop

let next t =
  let { tok; _ } = t.tokens.(t.index) in
  if tok <> Eof then t.index <- t.index + 1;
  tok

let save t = t.index

let restore t i = t.index <- i
