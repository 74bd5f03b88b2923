(** Span-carrying diagnostics shared by every frontend.

    A diagnostic points at a half-open byte range [start, stop) of the
    source string it was produced from. Rendering resolves byte offsets
    to 1-based line:col positions lazily, so producing a diagnostic is
    allocation-cheap and never needs the line table up front. All four
    parsers (SQL, XCSP XML, HG text, HG binary) report through this
    module, giving the CLI and the HTTP service one error shape:
    [file:line:col: error: message] plus an optional caret line. *)

type span = { start : int; stop : int }
(** Half-open byte range into the source. [stop >= start]; a zero-width
    span ([stop = start]) renders a single caret at [start]. *)

type t = { span : span; message : string }
(** Every diagnostic is an error: it is rendered and serialised with
    severity ["error"]. *)

val span : int -> int -> span
(** [span start stop] with both clamped to be non-negative and ordered. *)

val point : int -> span
(** Zero-width span at an offset. *)

val error : span -> string -> t

val errorf : span -> ('a, unit, string, t) format4 -> 'a

type position = { line : int; col : int }
(** 1-based line and column. *)

val position : string -> int -> position
(** [position source offset] resolves a byte offset (clamped into
    [0, length source]) against [source]. Columns count bytes, which
    matches how the corpus files are written (ASCII identifiers). *)

val one_line : ?file:string -> source:string -> t -> string
(** ["file:line:col: error: message"] — no trailing newline. When
    [file] is omitted the prefix is just ["line:col"]. *)

val render : ?file:string -> source:string -> t -> string
(** Multi-line caret report:
    {v
    file:3:9: error: expected ')'
      3 | SELECT (a FROM t
        |        ^
    v}
    Very long source lines are windowed around the span so a megabyte
    single-line input still renders a short report. Ends with a
    newline. *)

val render_all : ?file:string -> source:string -> t list -> string
(** Sorted concatenation of {!render} for each diagnostic. *)

val to_message : ?file:string -> source:string -> t list -> string
(** Backwards-compatible single-line summary: the first (lowest-offset)
    diagnostic via {!one_line}, plus [" (+N more errors)"] when the
    list holds more than one. Total fallback on an empty list. *)

val to_json : source:string -> t -> Json.t
(** [{"severity","line","col","offset","end_offset","message"}]. *)

val all_to_json : source:string -> t list -> Json.t
(** Sorted [Json.List] of {!to_json}. *)
