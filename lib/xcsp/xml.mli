(** A small XML parser, sufficient for XCSP3-style instance files:
    elements, attributes (single or double quoted), text, comments,
    processing instructions/declarations, self-closing tags, CDATA
    sections and the five predefined entities. No DTD or namespace
    handling.

    The descent is resource-bounded: element nesting past
    [HB_PARSE_DEPTH] and inputs over [HB_MAX_INPUT] bytes return a
    clean [Error] instead of overflowing the stack or chewing through
    an absurd payload. Errors carry byte spans via {!Kit.Diag}. *)

type node =
  | Element of string * (string * string) list * node list
  | Text of string

val parse_report : string -> (node, Kit.Diag.t list) result
(** Parse a document; returns its single root element. *)

val tag : node -> string option
val attr : node -> string -> string option
val children : node -> node list
val text_content : node -> string
(** Concatenated text of the node and its descendants. *)

val find_child : node -> string -> node option
val find_children : node -> string -> node list
(** Direct children by tag name. *)
