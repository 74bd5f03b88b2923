(** Fractional edge covers and fractionally improved decompositions
    (paper §6.5).

    [rho_star] is the fractional edge cover number ρ*(X): the optimum of
    the covering LP min Σ γ_e subject to Σ_{e ∋ v} γ_e >= 1 for every
    v ∈ X, γ >= 0. {!Improve_hd} replaces the integral covers of an
    existing (G)HD by fractional ones; {!Frac_improve_hd} searches over
    all HDs of integral width <= k for one whose fractional width is
    <= k'. *)

module Frac_cover : sig
  type t = { weight : float; gamma : (int * float) list }
  (** An optimal fractional cover: total weight and per-edge weights
      (edges with weight 0 omitted). *)

  val rho_star :
    ?edges:Kit.Bitset.t -> Hg.Hypergraph.t -> Kit.Bitset.t -> t option
  (** ρ*(X) using the given candidate edges (default: all edges of the
      hypergraph), solved as its packing dual by {!Lp.pack}. [None],
      without solving, when X cannot be covered at all (some vertex of X
      lies in no candidate edge). Every solve is certified in floats: the
      cover γ >= 0 covers X, the packing y >= 0 packs every candidate
      edge, and Σγ = Σy, each within 1e-7.
      @raise Failure if the certificate fails. *)

  val rho_star_exact :
    ?edges:Kit.Bitset.t ->
    ?max_den:int ->
    Hg.Hypergraph.t ->
    Kit.Bitset.t ->
    Kit.Rational.t option
  (** Exact ρ*(X), proven rather than guessed: γ and y are rationalised
      (denominators <= [max_den], default 1024) and checked in exact
      arithmetic — γ >= 0 covers X, y >= 0 packs every candidate edge,
      and Σγ = Σy — so by weak duality Σγ is ρ*(X). [None] only when X
      is uncoverable.
      @raise Failure if the exact certificate fails. *)

  val greedy_packing : Hg.Hypergraph.t -> Kit.Bitset.t -> Kit.Bitset.t
  (** Vertices of X, picked in ascending order, no two of which share an
      edge: y = 1 on them is a feasible packing, so their number is a
      lower bound on ρ*(X) (over all edges). No LP. *)

  val greedy_cover : Hg.Hypergraph.t -> Kit.Bitset.t -> int list option
  (** Edges covering X, picked greedily (the edge through the smallest
      uncovered vertex that covers the most uncovered vertices): their
      number is an upper bound on ρ*(X). [None] when X is uncoverable.
      No LP. *)

  val verify : Hg.Hypergraph.t -> Kit.Bitset.t -> t -> bool
  (** Does [gamma] really cover X (within tolerance) with total weight
      equal to [weight]? *)
end

module Improve_hd : sig
  val improve : Hg.Hypergraph.t -> Decomp.t -> Decomp.Fractional.fhd
  (** ImproveHD: keep the tree and bags of an HD/GHD, replace every
      integral cover λ_u by an optimal fractional cover γ_u of B_u.
      The result is a valid FHD of width <= the integral width. *)

  val improved_width : Hg.Hypergraph.t -> Decomp.t -> float
  (** Fractional width of the improved decomposition. *)
end

module Frac_improve_hd : sig
  type outcome =
    | Improved of Decomp.Fractional.fhd * float
    | No_improvement
    | Timeout

  val check :
    ?deadline:Kit.Deadline.t ->
    Hg.Hypergraph.t ->
    k:int ->
    k':float ->
    outcome
  (** FracImproveHD check: is there an HD of width <= k all of whose bags
      have ρ* <= k'? Searches with DetKDecomp plus a bag filter. Each
      bag's greedy packing and cover bounds are memoised; the certified
      LP runs (once per bag) only when neither bound decides the bag
      with a margin wider than the certificate's tolerance, so every
      decision is the LP's. *)

  val best :
    ?deadline:Kit.Deadline.t ->
    ?step:float ->
    Hg.Hypergraph.t ->
    k:int ->
    (Decomp.Fractional.fhd * float) option
  (** Smallest fractional width reachable (to [step] granularity, default
      0.1) over all HDs of width <= k: repeatedly lowers k' until the
      check fails or times out, with one ρ* memo for the whole loop.
      [None] when even the initial HD search fails or times out. *)
end
