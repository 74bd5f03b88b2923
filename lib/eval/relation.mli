(** In-memory relations over hypergraph vertices.

    Columns are vertex ids of the query hypergraph; rows are integer
    tuples. This is the substrate for decomposition-guided CQ evaluation
    (the paper's closing future-work item: "test the practical feasibility
    of using decompositions to evaluate CQs"). *)

type t

val create : columns:int list -> int array list -> t
(** Rows must have the same length as [columns]; duplicates are dropped
    (set semantics, as for CQ answers).
    @raise Invalid_argument on arity mismatch. *)

val columns : t -> int list
(** Sorted column (vertex) ids. *)

val rows : t -> int array list
val cardinality : t -> int
val is_empty : t -> bool

val unit_relation : t
(** The relation with no columns and one (empty) row — the join
    identity. *)

val project : t -> int list -> t
(** Keep only the given columns (must be a subset). *)

val join : t -> t -> t
(** Natural join on the shared columns (hash join). *)

val semijoin : t -> t -> t
(** Rows of the first relation that agree with some row of the second on
    their shared columns. *)

val equal : t -> t -> bool
(** Same columns and same set of rows. *)
