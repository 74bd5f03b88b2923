(** LocalBIP (paper §4.3): like GlobalBIP, but the subedge sets f_u(H,k)
    are computed lazily, per search node, and only after all combinations
    of full edges have failed for that subproblem. The subedges at a node
    come from intersections with unions of edges of the current component
    only (Equation 2). *)

type answer = Global_bip.answer = {
  outcome : Detk.outcome;
  exact : bool;  (** false when some local subedge set was truncated *)
}

val solve : ?deadline:Kit.Deadline.t -> Hg.Hypergraph.t -> k:int -> answer
