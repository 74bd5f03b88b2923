(** GlobalBIP (paper §4.2, Algorithm 1): solve Check(GHD,k) by computing
    the full subedge set f(H,k) up front, running the HD machinery on the
    enlarged hypergraph, and fixing subedge covers back to original edges.

    Sound for "yes" answers unconditionally (every returned decomposition
    is a validated GHD). "No" answers are exact whenever the subedge
    generation reports completeness — always the case when
    [intersection size * k] stays below the expansion cap. *)

type answer = {
  outcome : Detk.outcome;
  exact : bool;  (** false when the subedge set was truncated *)
}
(** What every GHD algorithm answers: {!Local_bip} and {!Bal_sep}
    re-export this type. *)

val solve : ?deadline:Kit.Deadline.t -> Hg.Hypergraph.t -> k:int -> answer

val fix_covers : Hg.Hypergraph.t -> Decomp.t -> Decomp.t
(** Replace subedge cover elements by the original edges containing them
    (Algorithm 1, lines 6-10). Shared by all three GHD algorithms. *)
