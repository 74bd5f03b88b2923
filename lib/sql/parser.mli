(** Recursive-descent parser for the SQL fragment of paper §5.2:
    SELECT-FROM-WHERE with explicit JOIN ... ON, WITH views, set
    operations, and nested subqueries via IN, EXISTS and scalar
    comparisons. GROUP BY / HAVING / ORDER BY / LIMIT are parsed and
    retained but play no role in the hypergraph structure.

    The descent is resource-bounded: nesting past [HB_PARSE_DEPTH] or
    an input over [HB_MAX_INPUT] bytes yields a clean [Error], never
    [Stack_overflow] or unbounded memory. Panic-mode recovery resyncs
    at select-list commas and statement [';'] boundaries, so one pass
    over a broken file reports several independent mistakes (capped at
    20). *)

val parse_report : string -> (Ast.statement, Kit.Diag.t list) result
(** Full diagnostics. [Ok] only for a clean single-statement parse;
    [Error] carries every recovered diagnostic in source order. *)
