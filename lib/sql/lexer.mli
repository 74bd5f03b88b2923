(** SQL tokenizer. Keywords are not distinguished from identifiers here;
    the parser matches identifiers case-insensitively.

    Every token carries its byte span in the source, and the lexer
    recovers from local mistakes (unterminated strings or comments,
    illegal characters) by reporting a {!Kit.Diag.t} and continuing, so
    one pass can surface several problems. Only a violated input-size
    bound ([HB_MAX_INPUT]) refuses the input outright. *)

type token =
  | Ident of string
  | Number of string
  | String of string  (** contents without quotes *)
  | Punct of string  (** operators and punctuation, e.g. "(", "<=", "," *)
  | Eof

type t

val create : string -> (t * Kit.Diag.t list, Kit.Diag.t) result
(** Tokenize the whole input eagerly. [Ok (lexer, diags)] returns the
    token stream plus any recovered lexical errors (possibly empty);
    [Error] only when the input exceeds the size bound. *)

val peek : t -> token

val peek_span : t -> Kit.Diag.span
(** Span of the current token; for [Eof] a zero-width span at the end
    of the input. *)

val prev_end : t -> int
(** Byte offset just past the last consumed token ([0] initially) — the
    natural right edge for a span that covers a completed construct. *)

val next : t -> token
(** Return the current token and advance. *)

val save : t -> int
val restore : t -> int -> unit
(** Save/restore the cursor: the parser backtracks at one ambiguity
    (parenthesised condition vs. parenthesised expression). *)
