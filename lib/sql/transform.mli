(** Query decomposition into simple conjunctive-core queries
    (paper §5.2–5.3).

    The pipeline: (1) WITH views and FROM-subqueries are expanded inline
    when they are plain SELECTs (aggregating or set-operation views are
    kept as opaque relations and their output columns registered as a
    synthetic schema); (2) set operations split into their operand
    queries; (3) WHERE-subqueries are organised in the dependency graph of
    §5.3 — subqueries that reference tables of an ancestor (correlated
    subqueries, i.e. cycles in the graph) are discarded together with
    their descendants, all others are extracted as independent simple
    queries. *)

type simple = {
  id : string;  (** derived name, e.g. ["q"], ["q.sub1"], ["q.u2"] *)
  select : Ast.select;  (** FROM contains base tables only *)
}

type outcome = {
  simples : simple list;
  schema : Schema.t;  (** input schema extended with opaque-view schemas *)
  warnings : string list;
}

val extract : ?schema:Schema.t -> Ast.statement -> outcome
