(** Relation schemas (attribute lists per relation), matched
    case-insensitively. *)

type t

val empty : t
val of_list : (string * string list) list -> t
val add : string -> string list -> t -> t
val attrs : t -> string -> string list option
val has_attr : t -> string -> string -> bool
