(** The primal (Gaifman) graph of a hypergraph, and treewidth estimates on
    it. Bonifati et al.'s SPARQL studies cited in the paper report
    treewidth for graph-like queries (tw <= 2 for arity-2 CQs, tw <= 4 for
    C2RPQ+); these heuristics let the benchmark report the same metric.

    Treewidth bounds come from elimination orderings: {!upper_bound}
    simulates vertex elimination with the min-fill or min-degree greedy
    rule (exact on chordal graphs, near-optimal on small instances);
    {!lower_bound} is the classical MMD (maximum minimum degree over
    subgraph sequences, here via repeated min-degree removal). *)

val graph : Hypergraph.t -> Kit.Bitset.t array
(** Adjacency sets over the vertex universe: two vertices are adjacent iff
    they share an edge. No self-loops. *)

type heuristic = Min_fill | Min_degree

val upper_bound :
  ?heuristic:heuristic -> Hypergraph.t -> int * int list
(** Treewidth upper bound and the elimination order that witnesses it.
    Default heuristic: {!Min_fill}. The empty hypergraph has bound 0. *)

val lower_bound : Hypergraph.t -> int
(** MMD treewidth lower bound. *)
