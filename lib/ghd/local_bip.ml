module Bitset = Kit.Bitset

(* Calls into the per-component extra-candidate oracle f_u(H,k), split by
   cache outcome (Kit.Metrics; recorded only when enabled). *)
let m_extra_calls = Kit.Metrics.counter "localbip.extra_calls"
let m_extra_cache_hits = Kit.Metrics.counter "localbip.extra_cache_hits"

type answer = Global_bip.answer = {
  outcome : Detk.outcome;
  exact : bool;
}

let solve ?deadline h ~k =
  let all_complete = ref true in
  (* The local subedge set depends only on the component, so cache it. *)
  let cache : (int list, Detk.candidate list) Hashtbl.t = Hashtbl.create 32 in
  let extra ~comp ~conn:_ =
    Kit.Metrics.incr m_extra_calls;
    let key = Bitset.to_list comp in
    match Hashtbl.find_opt cache key with
    | Some cs ->
        Kit.Metrics.incr m_extra_cache_hits;
        cs
    | None ->
        let { Subedges.candidates; complete } =
          Subedges.f_local ?deadline h ~k ~comp
        in
        if not complete then all_complete := false;
        Hashtbl.replace cache key candidates;
        candidates
  in
  match
    Detk.solve_gen ?deadline ~extra ~candidates:(Detk.candidates_of_edges h) h ~k
  with
  | Detk.Decomposition d ->
      { outcome = Detk.Decomposition (Global_bip.fix_covers h d); exact = true }
  | Detk.No_decomposition ->
      { outcome = Detk.No_decomposition; exact = !all_complete }
  | Detk.Timeout -> { outcome = Detk.Timeout; exact = false }
