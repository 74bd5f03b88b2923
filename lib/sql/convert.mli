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

val select_to_hypergraph : ?schema:Schema.t -> Ast.select -> conversion
(** Conversion of one simple SELECT; the conjunctive core is taken
    implicitly, i.e. non-equality conditions are ignored. *)

val statement_to_hypergraphs :
  ?schema:Schema.t -> Ast.statement -> (string * conversion) list
(** Full pipeline of §5.2–5.4: extract simple queries (view expansion,
    set-operation splitting, subquery dependency analysis), then convert
    each. Returns (query id, conversion) pairs. *)

val sql_to_hypergraphs_report :
  ?schema:Schema.t ->
  string ->
  ((string * conversion) list, Kit.Diag.t list) result
(** {!statement_to_hypergraphs} composed with {!Parser.parse_report}: a
    parse failure carries the full span diagnostics. *)
