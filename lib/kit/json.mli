(** A minimal JSON value type, printer and parser — just enough for the
    experiment journal (JSONL) and the metrics export, with no external
    dependency. Numbers round-trip exactly: integers stay integers and
    floats are printed with 17 significant digits, so a journaled record
    re-renders bit-identically after resume. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line, no spaces) rendering with full string
    escaping; never produces a newline, so one value per line is a valid
    JSONL record. *)

val of_string : string -> (t, string) result
(** Strict parse of a single value (trailing garbage is an error).
    Errors carry the byte offset. [\uXXXX] escapes are decoded to
    UTF-8; surrogate pairs are combined. *)

(** {1 Accessors} — shallow, total helpers for decoding journal rows *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on missing field or non-object. *)

val to_int : t -> int option
(** [Int], or a [Float] with integral value. *)

val to_float : t -> float option
val string_value : t -> string option
val to_list : t -> t list option
