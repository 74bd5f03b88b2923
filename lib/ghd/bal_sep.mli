(** BalSep (paper §4.4, Algorithm 2): GHD computation via balanced
    separators.

    The recursion works on extended subhypergraphs H' ∪ Sp, where Sp is a
    set of special edges (vertex sets standing for bags created higher up).
    At each step only separators λ whose vertex set B(λ) is a {e balanced}
    separator are considered: every [B(λ)]-component of H' ∪ Sp may contain
    at most half of its edges (Lemma 1 guarantees a normal-form GHD with
    such a root exists). This shrinks every subproblem geometrically and,
    as the paper's experiments show, detects "no" instances quickly.

    Separator candidates are full edges first; combinations containing
    subedges from f(H,k) are tried only afterwards (same caveat on
    completeness as GlobalBIP when the subedge set is truncated). *)

type answer = Global_bip.answer = {
  outcome : Detk.outcome;
  exact : bool;
}

val solve :
  ?deadline:Kit.Deadline.t ->
  ?use_subedges:bool ->
  Hg.Hypergraph.t ->
  k:int ->
  answer
(** [use_subedges] (default true) enables the f(H,k) fallback phase of the
    separator iterator; switching it off gives the ablation variant that
    searches over full edges only (sound, possibly incomplete). *)
