(** [U]-components and separators (paper §3.3).

    Two edges are [U]-adjacent when they share a vertex outside the vertex
    set [U]; [U]-components are the classes of the transitive closure of
    this relation, restricted to a given candidate edge set. Edges entirely
    inside [U] belong to no component. *)

val components :
  Hypergraph.t -> within:Kit.Bitset.t -> Kit.Bitset.t -> Kit.Bitset.t list
(** [components h ~within u] are the [u]-components of the edges in
    [within] (an edge set). Each returned component is a non-empty edge
    set; components are pairwise disjoint and their union is exactly the
    set of edges of [within] not fully contained in [u]. *)

val heavy_vertices :
  Hypergraph.t -> within:Kit.Bitset.t -> special:Kit.Bitset.t array -> Kit.Bitset.t
(** Vertices lying in more than half of the (ordinary plus special)
    edges of the extended subhypergraph. Every edge containing a vertex
    outside the separator lands in that vertex's component, so a
    separator that misses a heavy vertex is never balanced. *)

val is_balanced :
  Hypergraph.t ->
  within:Kit.Bitset.t ->
  special:Kit.Bitset.t array ->
  int array ->
  int ->
  bool
(** Balanced-separator test used by BalSep (Definition 7): every
    [u]-component of the extended subhypergraph with [within] ordinary
    edges and [special] special edges must contain at most half of the
    total number of (ordinary plus special) edges.

    Staged for a loop over many separators of one subproblem:
    [is_balanced h ~within ~special] computes {!heavy_vertices}, copies
    [within], the special edges and the heavy vertices into flat word
    rows and allocates the BFS rows, all once. The checker takes the
    separator [u] as a row: [check row off] tests the vertex set whose
    words are at [row.(off ...)], laid out over [h]'s vertices (see
    {!Kit.Bitset.words_out}). Each application runs allocation-free in
    three stages. First, [u] must contain every heavy vertex (one word
    loop). Second, if [u] misses the region through which the last
    rejected separator's oversized component was found, that component
    is still one [u]-component and [u] is rejected too (one word loop).
    Otherwise components are grown one at a time by a frontier BFS (a
    round reads only the incidence of the vertices the previous round
    added) that stops as soon as one of them exceeds the bound, or as
    soon as the edges not yet placed could no longer exceed it. Agrees
    exactly with checking every component of {!components_extended}.
    The staged checker owns mutable rows: use it from one domain, one
    call at a time. *)

val components_extended :
  Hypergraph.t ->
  within:Kit.Bitset.t ->
  special:Kit.Bitset.t array ->
  Kit.Bitset.t ->
  (Kit.Bitset.t * int list) list
(** Components of an extended subhypergraph (Definition 6): [within] is a
    set of ordinary edges, [special] an array of special edges (vertex
    sets). Returns one [(ordinary_edges, special_indices)] pair per
    component. *)

val connected : Hypergraph.t -> bool
(** Is the hypergraph [∅]-connected (one component, no isolated parts)? *)
