(** Hypergraph conversion of simple conjunctive queries (paper §5.4).

    Every table instance of the FROM clause contributes one hyperedge over
    vertices (instance, attribute); equality join conditions merge
    vertices, comparisons with constants delete them; empty and duplicate
    edges are dropped at the end. Attributes come from the schema when the
    relation is known there, otherwise from the columns actually
    referenced in the query. *)

type conversion = {
  hypergraph : Hg.Hypergraph.t option;
      (** [None] when nothing remains (e.g. all edges empty). *)
  warnings : string list;
}

val sql_to_hypergraphs_report :
  ?schema:Schema.t ->
  string ->
  ((string * conversion) list, Kit.Diag.t list) result
(** Full pipeline of §5.2–5.4: parse ({!Parser.parse_report}), extract
    simple queries (view expansion, set-operation splitting, subquery
    dependency analysis), then convert each simple SELECT. Returns
    (query id, conversion) pairs. The conjunctive core is taken
    implicitly: non-equality conditions are ignored. A parse failure
    carries the full span diagnostics. *)
