open Ast

exception Parse_error of Kit.Diag.t

(* Parser state: the token stream plus the recursion-depth counter and
   the diagnostics collected so far. The depth counter bounds every
   recursive descent (HB_PARSE_DEPTH) so a parenthesis bomb yields a
   clean diagnostic instead of Stack_overflow; the diagnostics list is
   what panic-mode recovery accumulates across sync points. *)
type p = {
  l : Lexer.t;
  max_depth : int;
  mutable depth : int;
  mutable diags : Kit.Diag.t list;  (* newest first *)
  mutable ndiags : int;
}

let max_errors = 20

let record p d =
  if p.ndiags < max_errors then begin
    p.diags <- d :: p.diags;
    p.ndiags <- p.ndiags + 1
  end

(* Speculative parses (the one condition-vs-expression ambiguity) must
   roll back any diagnostics recovery collected on the abandoned path,
   or phantom errors would survive a successful re-parse. *)
let save p = (Lexer.save p.l, p.diags, p.ndiags)

let restore p (mark, diags, ndiags) =
  Lexer.restore p.l mark;
  p.diags <- diags;
  p.ndiags <- ndiags

let reserved =
  [
    "SELECT"; "FROM"; "WHERE"; "GROUP"; "HAVING"; "ORDER"; "BY"; "UNION";
    "INTERSECT"; "EXCEPT"; "JOIN"; "ON"; "AS"; "INNER"; "LEFT"; "RIGHT";
    "FULL"; "CROSS"; "OUTER"; "WITH"; "AND"; "OR"; "NOT"; "IN"; "EXISTS";
    "BETWEEN"; "IS"; "NULL"; "LIKE"; "LIMIT"; "OFFSET"; "DISTINCT"; "ALL";
    "ASC"; "DESC"; "CASE"; "WHEN"; "THEN"; "ELSE"; "END";
  ]

let fail p msg = raise (Parse_error (Kit.Diag.error (Lexer.peek_span p.l) msg))

let deeper p f =
  if p.depth >= p.max_depth then
    raise
      (Parse_error
         (Kit.Limits.depth_error
            ~at:(Lexer.peek_span p.l).Kit.Diag.start));
  p.depth <- p.depth + 1;
  match f () with
  | v ->
      p.depth <- p.depth - 1;
      v
  | exception e ->
      p.depth <- p.depth - 1;
      raise e

let upper = String.uppercase_ascii

let is_kw p kw =
  match Lexer.peek p.l with Lexer.Ident s -> upper s = kw | _ -> false

let eat_kw p kw =
  if is_kw p kw then begin
    ignore (Lexer.next p.l);
    true
  end
  else false

let expect_kw p kw =
  if not (eat_kw p kw) then fail p (Printf.sprintf "expected %s" kw)

let is_punct p punct = Lexer.peek p.l = Lexer.Punct punct

let eat_punct p punct =
  if is_punct p punct then begin
    ignore (Lexer.next p.l);
    true
  end
  else false

let expect_punct p punct =
  if not (eat_punct p punct) then fail p (Printf.sprintf "expected '%s'" punct)

let ident p =
  match Lexer.peek p.l with
  | Lexer.Ident s when not (List.mem (upper s) reserved) ->
      ignore (Lexer.next p.l);
      s
  | _ -> fail p "expected identifier"

(* --- expressions --------------------------------------------------------- *)

let rec parse_expr p = deeper p (fun () -> parse_additive p)

and parse_additive p =
  let rec go acc =
    if is_punct p "+" || is_punct p "-" || is_punct p "||" then begin
      let op =
        match Lexer.next p.l with Lexer.Punct x -> x | _ -> assert false
      in
      let rhs = parse_multiplicative p in
      go (Binop (op, acc, rhs))
    end
    else acc
  in
  go (parse_multiplicative p)

and parse_multiplicative p =
  let rec go acc =
    if is_punct p "*" || is_punct p "/" || is_punct p "%" then begin
      let op =
        match Lexer.next p.l with Lexer.Punct x -> x | _ -> assert false
      in
      let rhs = parse_factor p in
      go (Binop (op, acc, rhs))
    end
    else acc
  in
  go (parse_factor p)

and parse_factor p =
  match Lexer.peek p.l with
  | Lexer.Number n ->
      ignore (Lexer.next p.l);
      if String.contains n '.' then
        match float_of_string_opt n with
        | Some f -> Lit (Float f)
        | None -> fail p (Printf.sprintf "malformed number %S" n)
      else (
        match int_of_string_opt n with
        | Some i -> Lit (Int i)
        | None -> fail p (Printf.sprintf "malformed number %S" n))
  | Lexer.String s ->
      ignore (Lexer.next p.l);
      Lit (String s)
  | Lexer.Punct "-" ->
      ignore (Lexer.next p.l);
      deeper p (fun () -> Binop ("-", Lit (Int 0), parse_factor p))
  | Lexer.Punct "*" ->
      ignore (Lexer.next p.l);
      Star
  | Lexer.Punct "(" ->
      ignore (Lexer.next p.l);
      let e = parse_expr p in
      expect_punct p ")";
      e
  | Lexer.Ident s when upper s = "NULL" ->
      ignore (Lexer.next p.l);
      Lit Null
  | Lexer.Ident s when upper s = "CASE" -> parse_case p
  | Lexer.Ident _ -> (
      let name = ident_or_function_name p in
      match Lexer.peek p.l with
      | Lexer.Punct "(" ->
          ignore (Lexer.next p.l);
          (* Aggregates: COUNT of star / COUNT DISTINCT etc. *)
          ignore (eat_kw p "DISTINCT");
          let args =
            if eat_punct p ")" then []
            else begin
              let rec args_loop acc =
                let e = parse_expr p in
                if eat_punct p "," then args_loop (e :: acc)
                else begin
                  expect_punct p ")";
                  List.rev (e :: acc)
                end
              in
              args_loop []
            end
          in
          Fun (name, args)
      | Lexer.Punct "." ->
          ignore (Lexer.next p.l);
          if is_punct p "*" then begin
            ignore (Lexer.next p.l);
            Star
          end
          else
            let col =
              match Lexer.peek p.l with
              | Lexer.Ident c ->
                  ignore (Lexer.next p.l);
                  c
              | _ -> fail p "expected column after '.'"
            in
            Col (Some name, col)
      | _ -> Col (None, name))
  | _ -> fail p "expected expression"

and ident_or_function_name p =
  (* Function names may collide with keywords we do not reserve; plain
     identifiers must not be reserved. *)
  match Lexer.peek p.l with
  | Lexer.Ident s when not (List.mem (upper s) reserved) ->
      ignore (Lexer.next p.l);
      s
  | _ -> fail p "expected identifier"

and parse_case p =
  (* CASE [expr] WHEN c THEN e ... [ELSE e] END — structure-irrelevant;
     collapse to a function of the mentioned column expressions. *)
  expect_kw p "CASE";
  let parts = ref [] in
  let rec go () =
    if eat_kw p "END" then ()
    else if eat_kw p "WHEN" then begin
      (* Conditions inside CASE are rare in our corpora; parse as expr
         followed by optional comparison. *)
      let e = parse_expr p in
      parts := e :: !parts;
      (match Lexer.peek p.l with
      | Lexer.Punct ("=" | "<" | ">" | "<=" | ">=" | "<>") ->
          ignore (Lexer.next p.l);
          parts := parse_expr p :: !parts
      | _ -> ());
      expect_kw p "THEN";
      parts := parse_expr p :: !parts;
      go ()
    end
    else if eat_kw p "ELSE" then begin
      parts := parse_expr p :: !parts;
      go ()
    end
    else fail p "malformed CASE expression"
  in
  go ();
  Fun ("case", List.rev !parts)

(* --- conditions ----------------------------------------------------------- *)

let cmp_of_punct = function
  | "=" -> Some Eq
  | "<>" -> Some Neq
  | "<" -> Some Lt
  | ">" -> Some Gt
  | "<=" -> Some Le
  | ">=" -> Some Ge
  | _ -> None

let rec parse_cond p = deeper p (fun () -> parse_or p)

and parse_or p =
  let rec go acc = if eat_kw p "OR" then go (Or (acc, parse_and p)) else acc in
  go (parse_and p)

and parse_and p =
  let rec go acc =
    if eat_kw p "AND" then go (And (acc, parse_not p)) else acc
  in
  go (parse_not p)

and parse_not p =
  if eat_kw p "NOT" then deeper p (fun () -> Not (parse_not p))
  else parse_primary_cond p

and parse_primary_cond p =
  if is_kw p "EXISTS" then begin
    expect_kw p "EXISTS";
    expect_punct p "(";
    let q = parse_query_inner p in
    expect_punct p ")";
    Exists q
  end
  else if is_punct p "(" then begin
    (* Ambiguity: '(cond)' vs '(expr) cmp ...'. Try condition first and
       fall back to an expression-led predicate. *)
    let mark = save p in
    match
      ignore (Lexer.next p.l);
      let c = parse_cond p in
      expect_punct p ")";
      c
    with
    | c -> (
        (* If a comparison operator follows, it was an expression after
           all: re-parse. *)
        match Lexer.peek p.l with
        | Lexer.Punct x when cmp_of_punct x <> None ->
            restore p mark;
            parse_predicate p
        | _ -> c)
    | exception Parse_error _ ->
        restore p mark;
        parse_predicate p
  end
  else parse_predicate p

and parse_predicate p =
  let e = parse_expr p in
  let negated = eat_kw p "NOT" in
  if is_kw p "IN" then begin
    expect_kw p "IN";
    expect_punct p "(";
    let c =
      if is_kw p "SELECT" then begin
        let q = parse_query_inner p in
        In_query (e, q)
      end
      else begin
        let rec items acc =
          let x = parse_expr p in
          if eat_punct p "," then items (x :: acc) else List.rev (x :: acc)
        in
        In_list (e, items [])
      end
    in
    expect_punct p ")";
    if negated then Not c else c
  end
  else if is_kw p "BETWEEN" then begin
    expect_kw p "BETWEEN";
    let lo = parse_expr p in
    expect_kw p "AND";
    let hi = parse_expr p in
    let c = Between (e, lo, hi) in
    if negated then Not c else c
  end
  else if is_kw p "LIKE" then begin
    expect_kw p "LIKE";
    match Lexer.peek p.l with
    | Lexer.String s ->
        ignore (Lexer.next p.l);
        Like (e, s, not negated)
    | _ -> fail p "expected string after LIKE"
  end
  else if is_kw p "IS" then begin
    expect_kw p "IS";
    let neg = eat_kw p "NOT" in
    expect_kw p "NULL";
    Is_null (e, not neg)
  end
  else if negated then fail p "expected IN/BETWEEN/LIKE after NOT"
  else
    match Lexer.peek p.l with
    | Lexer.Punct x when cmp_of_punct x <> None -> (
        ignore (Lexer.next p.l);
        let op = Option.get (cmp_of_punct x) in
        (* Scalar subquery on the right-hand side? *)
        if is_punct p "(" then begin
          let mark = save p in
          ignore (Lexer.next p.l);
          if is_kw p "SELECT" then begin
            let q = parse_query_inner p in
            expect_punct p ")";
            Cmp_query (op, e, q)
          end
          else begin
            restore p mark;
            Cmp (op, e, parse_expr p)
          end
        end
        else
          match (is_kw p "ANY", is_kw p "SOME", is_kw p "ALL") with
          | false, false, false -> Cmp (op, e, parse_expr p)
          | _ ->
              ignore (Lexer.next p.l);
              expect_punct p "(";
              let q = parse_query_inner p in
              expect_punct p ")";
              Cmp_query (op, e, q))
    | _ -> fail p "expected comparison operator"

(* --- FROM clause ----------------------------------------------------------- *)

and parse_table_ref p =
  if is_punct p "(" then begin
    ignore (Lexer.next p.l);
    let q = parse_query_inner p in
    expect_punct p ")";
    ignore (eat_kw p "AS");
    let alias = ident p in
    Derived (q, alias)
  end
  else begin
    let name = ident p in
    ignore (eat_kw p "AS");
    match Lexer.peek p.l with
    | Lexer.Ident s when not (List.mem (upper s) reserved) ->
        ignore (Lexer.next p.l);
        Table (name, Some s)
    | _ -> Table (name, None)
  end

and parse_from p =
  (* Returns the table refs plus the conjunction of all ON conditions. *)
  let conds = ref [] in
  let rec joins acc =
    let is_join_kw () =
      is_kw p "JOIN" || is_kw p "INNER" || is_kw p "LEFT" || is_kw p "RIGHT"
      || is_kw p "FULL" || is_kw p "CROSS"
    in
    if is_join_kw () then begin
      ignore (eat_kw p "INNER");
      ignore (eat_kw p "LEFT");
      ignore (eat_kw p "RIGHT");
      ignore (eat_kw p "FULL");
      ignore (eat_kw p "CROSS");
      ignore (eat_kw p "OUTER");
      expect_kw p "JOIN";
      let t = parse_table_ref p in
      if eat_kw p "ON" then conds := parse_cond p :: !conds;
      joins (t :: acc)
    end
    else if eat_punct p "," then joins (parse_table_ref p :: acc)
    else List.rev acc
  in
  let refs = joins [ parse_table_ref p ] in
  (refs, List.rev !conds)

(* --- SELECT core ----------------------------------------------------------- *)

(* Panic-mode sync for a broken select-list item: skip to the next
   top-level ',' (continue with the following item) or to a clause
   keyword / statement boundary (stop the list). Tracks parentheses so
   commas inside calls or IN-lists do not end the item early. *)
and sync_select_item p =
  let rec go parens =
    match Lexer.peek p.l with
    | Lexer.Eof -> `Stop
    | Lexer.Punct ";" -> `Stop
    | Lexer.Punct "," when parens = 0 ->
        ignore (Lexer.next p.l);
        `Continue
    | Lexer.Punct "(" ->
        ignore (Lexer.next p.l);
        go (parens + 1)
    | Lexer.Punct ")" ->
        ignore (Lexer.next p.l);
        go (max 0 (parens - 1))
    | Lexer.Ident s
      when parens = 0
           && List.mem (upper s)
                [ "FROM"; "GROUP"; "HAVING"; "ORDER"; "LIMIT"; "OFFSET" ] ->
        `Stop
    | _ ->
        ignore (Lexer.next p.l);
        go parens
  in
  go 0

and parse_select p =
  let start = (Lexer.peek_span p.l).Kit.Diag.start in
  expect_kw p "SELECT";
  let distinct = eat_kw p "DISTINCT" in
  ignore (eat_kw p "ALL");
  let select_list =
    if is_punct p "*" then begin
      ignore (Lexer.next p.l);
      []
    end
    else begin
      let item () =
        let e = parse_expr p in
        let alias =
          if eat_kw p "AS" then Some (ident p)
          else
            match Lexer.peek p.l with
            | Lexer.Ident s when not (List.mem (upper s) reserved) ->
                ignore (Lexer.next p.l);
                Some s
            | _ -> None
        in
        (e, alias)
      in
      let rec items acc =
        match item () with
        | it -> if eat_punct p "," then items (it :: acc) else List.rev (it :: acc)
        | exception Parse_error d ->
            (* Recover within the list: report, resync, keep going so
               one pass surfaces every broken item. *)
            record p d;
            (match sync_select_item p with
            | `Continue -> items acc
            | `Stop -> List.rev acc)
      in
      items []
    end
  in
  expect_kw p "FROM";
  let from, join_conds = parse_from p in
  let where = if eat_kw p "WHERE" then Some (parse_cond p) else None in
  let where = Ast.conjoin (join_conds @ Option.to_list where) in
  let group_by =
    if is_kw p "GROUP" then begin
      expect_kw p "GROUP";
      expect_kw p "BY";
      let rec exprs acc =
        let e = parse_expr p in
        if eat_punct p "," then exprs (e :: acc) else List.rev (e :: acc)
      in
      exprs []
    end
    else []
  in
  let having = if eat_kw p "HAVING" then Some (parse_cond p) else None in
  let order_by =
    if is_kw p "ORDER" then begin
      expect_kw p "ORDER";
      expect_kw p "BY";
      let rec exprs acc =
        let e = parse_expr p in
        ignore (eat_kw p "ASC");
        ignore (eat_kw p "DESC");
        if eat_punct p "," then exprs (e :: acc) else List.rev (e :: acc)
      in
      exprs []
    end
    else []
  in
  if eat_kw p "LIMIT" then ignore (Lexer.next p.l);
  if eat_kw p "OFFSET" then ignore (Lexer.next p.l);
  let span = Kit.Diag.span start (Lexer.prev_end p.l) in
  Select { distinct; select_list; from; where; group_by; having; order_by; span }

and parse_query_inner p =
  deeper p (fun () ->
      let lhs = parse_select p in
      let rec setops acc =
        if is_kw p "UNION" then begin
          expect_kw p "UNION";
          let all = eat_kw p "ALL" in
          let rhs = parse_select p in
          setops (Setop ((if all then Union_all else Union), acc, rhs))
        end
        else if is_kw p "INTERSECT" then begin
          expect_kw p "INTERSECT";
          ignore (eat_kw p "ALL");
          setops (Setop (Intersect, acc, parse_select p))
        end
        else if is_kw p "EXCEPT" then begin
          expect_kw p "EXCEPT";
          ignore (eat_kw p "ALL");
          setops (Setop (Except, acc, parse_select p))
        end
        else acc
      in
      setops lhs)

let parse_statement p =
  let views =
    if is_kw p "WITH" then begin
      expect_kw p "WITH";
      let rec view_list acc =
        let name = ident p in
        expect_kw p "AS";
        expect_punct p "(";
        let q = parse_query_inner p in
        expect_punct p ")";
        if eat_punct p "," then view_list ((name, q) :: acc)
        else List.rev ((name, q) :: acc)
      in
      view_list []
    end
    else []
  in
  let body = parse_query_inner p in
  ignore (eat_punct p ";");
  { views; body }

(* Statement-level panic sync: skip past the next ';' (or to Eof) so
   the driver can attempt the following statement. *)
let sync_statement p =
  let rec go () =
    match Lexer.peek p.l with
    | Lexer.Eof -> ()
    | Lexer.Punct ";" -> ignore (Lexer.next p.l)
    | _ ->
        ignore (Lexer.next p.l);
        go ()
  in
  go ()

let parse_report src =
  match Lexer.create src with
  | Error d -> Error [ d ]
  | Ok (l, lex_diags) -> (
      let p =
        {
          l;
          max_depth = Kit.Config.parse_depth ();
          depth = 0;
          diags = [];
          ndiags = 0;
        }
      in
      List.iter (record p) lex_diags;
      let stmts = ref [] in
      let rec loop () =
        if p.ndiags < max_errors then
          match Lexer.peek p.l with
          | Lexer.Eof -> ()
          | _ ->
              let start = (Lexer.peek_span p.l).Kit.Diag.start in
              (match parse_statement p with
              | s -> stmts := (start, s) :: !stmts
              | exception Parse_error d ->
                  record p d;
                  sync_statement p);
              loop ()
      in
      loop ();
      match (List.rev !stmts, List.rev p.diags) with
      | _, (_ :: _ as ds) -> Error ds
      | [ (_, s) ], [] -> Ok s
      | [], [] ->
          Error
            [
              Kit.Diag.error (Kit.Diag.point 0)
                "empty input: expected a SELECT statement";
            ]
      | _ :: (start2, _) :: _, [] ->
          Error
            [
              Kit.Diag.error
                (Kit.Diag.point start2)
                "trailing input: more than one SQL statement";
            ])
