(** XCSP-style CSP instances to hypergraphs (paper §5.5).

    The reader accepts the structural subset of XCSP3: variable
    declarations via [<var>] and [<array>] (with [size="[n]"] or
    [size="[n][m]"] shapes), and constraints of any type under
    [<constraints>], including [<group>] (a template with one [<args>]
    instantiation per constraint) and nested [<block>]s. Each constraint
    becomes a hyperedge over the variables occurring in its scope —
    exactly the paper's translation: a vertex per variable, an edge per
    constraint.

    The writer emits instances in the same shape (extensional constraints
    only), which makes generator output self-describing and round-trips
    with the reader. *)

type instance = {
  name : string;
  variables : string list;  (** expanded variable names, declaration order *)
  scopes : string list list;  (** one scope per constraint *)
}

val parse_report : string -> (instance, Kit.Diag.t list) result
(** XML errors keep their byte spans; semantic errors (missing
    sections, bad root) anchor at offset 0. *)

val to_hypergraph : instance -> (Hg.Hypergraph.t, string) result
(** Fails when a constraint references an undeclared variable or the
    instance has no constraints. Variables not occurring in any scope are
    dropped (hypergraphs have no isolated vertices). *)

val read_report : string -> (Hg.Hypergraph.t, Kit.Diag.t list) result
(** {!parse_report} followed by {!to_hypergraph}, whose errors anchor
    at offset 0. *)

val identifiers : Hg.Hypergraph.t -> string array
(** The variable id {!to_xml} writes for each vertex. A name made only of
    [[A-Za-z0-9_]] is kept as is; any other (the dotted column names of
    SQL-derived hypergraphs, say) has each other character replaced by
    ['_'] ([""] becomes ["v"]), plus a ["_<n>"] suffix when that id is
    already taken, so distinct vertices keep distinct ids. *)

val to_xml : name:string -> Hg.Hypergraph.t -> string
(** Render a hypergraph as an XCSP-style instance with one extensional
    constraint per edge, naming variables by {!identifiers}. [read_report]
    gives back the same hypergraph up to that renaming — exactly the
    same one when every vertex name is already an identifier. *)
