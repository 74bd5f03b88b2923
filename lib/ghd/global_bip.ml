module Hypergraph = Hg.Hypergraph

(* Total cover-candidate pool handed to the search: original edges plus
   the whole f(H,k) set (Kit.Metrics; recorded only when enabled). *)
let m_candidates = Kit.Metrics.counter "globalbip.candidates"
let m_solves = Kit.Metrics.counter "globalbip.solves"

type answer = {
  outcome : Detk.outcome;
  exact : bool;
}

(* Lines 6-10 of Algorithm 1: replace every subedge in a cover by an
   original edge containing it; bags are untouched, so the result is still
   a GHD of the same width. *)
let fix_covers h d =
  Decomp.map_covers
    (fun elt ->
      match elt.Decomp.source with
      | Decomp.Subedge parent ->
          {
            Decomp.label = Hypergraph.edge_name h parent;
            vertices = Hypergraph.edge h parent;
            source = Decomp.Original parent;
          }
      | Decomp.Original _ | Decomp.Special -> elt)
    d

let solve ?deadline h ~k =
  match
    let { Subedges.candidates = subs; complete } =
      Subedges.f_global ?deadline h ~k
    in
    let candidates = Detk.candidates_of_edges h @ subs in
    Kit.Metrics.incr m_solves;
    Kit.Metrics.add m_candidates (List.length candidates);
    (complete, Detk.solve_gen ?deadline ~candidates h ~k)
  with
  | _, Detk.Decomposition d ->
      { outcome = Detk.Decomposition (fix_covers h d); exact = true }
  | complete, Detk.No_decomposition ->
      { outcome = Detk.No_decomposition; exact = complete }
  | _, Detk.Timeout -> { outcome = Detk.Timeout; exact = false }
  | exception Kit.Deadline.Timed_out -> { outcome = Detk.Timeout; exact = false }
