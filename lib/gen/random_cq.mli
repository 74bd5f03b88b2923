(** Random conjunctive-query hypergraphs in the style of the
    Pottinger–Halevy query generator used for the paper's "CQ Random"
    group (§5.6): chain and star queries (trivially acyclic) plus the
    unrestricted random option. The paper's parameter ranges are 5–100
    vertices, 3–50 edges and arities 3–20. *)

val chain : Kit.Rng.t -> n_edges:int -> arity:int -> Hg.Hypergraph.t
(** Edges overlap their successor in one vertex; acyclic. *)

val star : Kit.Rng.t -> n_edges:int -> arity:int -> Hg.Hypergraph.t
(** All edges share one centre vertex; acyclic. *)

val random :
  Kit.Rng.t -> n_vertices:int -> n_edges:int -> max_arity:int -> Hg.Hypergraph.t
(** Unrestricted random hypergraph: each edge samples between 2 and
    [max_arity] distinct vertices. Isolated vertices are avoided by
    construction (the vertex universe is shrunk to the used vertices). *)
