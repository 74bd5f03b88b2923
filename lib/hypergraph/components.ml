module Bitset = Kit.Bitset

(* Components are grown by BFS over the "region" of vertices outside [u]
   reached so far: any candidate edge intersecting the region joins the
   component and extends the region with its own vertices outside [u].

   All growth happens in place: [remaining], [region] and the per-round
   [touch]/[verts] buffers are allocated once per call and mutated, so a
   BFS round costs word loops and no allocation. Only the per-component
   edge sets are fresh — they escape into the result. The region is kept
   as a subset of V ∖ u throughout, which also means special-edge
   adjacency can be tested against the special edge directly (its
   vertices inside [u] cannot be in the region anyway). *)

(* BFS state, built once per call and threaded through top-level workers:
   local [let rec] closures would capture all of this and be reallocated
   on every call — one record replaces four closures on the profile. *)
type st = {
  h : Hypergraph.t;
  mutable u : Bitset.t; (* reset per separator by [is_balanced] *)
  remaining : Bitset.t; (* candidate edges not yet assigned *)
  touch : Bitset.t; (* per-round: remaining edges meeting the region *)
  verts : Bitset.t; (* per-round: new region vertices *)
  region : Bitset.t;
  special : Bitset.t array;
  special_left : bool array;
}

let n_special st = Array.length st.special

let rec first_special_left st i =
  if i >= n_special st then -1
  else if st.special_left.(i) then i
  else first_special_left st (i + 1)

(* One BFS round: edges and specials touching the region join [comp]
   and extend the region with their vertices outside [u]. *)
let rec grow st comp specials =
  Hypergraph.edges_touching_into st.h st.region ~into:st.touch;
  Bitset.inter_into ~into:st.touch st.remaining;
  let new_specials = collect_specials st [] 0 in
  if Bitset.is_empty st.touch && new_specials = [] then (comp, specials)
  else begin
    Bitset.diff_into ~into:st.remaining st.touch;
    Bitset.union_into ~into:comp st.touch;
    Hypergraph.vertices_of_edges_into st.h st.touch ~into:st.verts;
    union_specials st new_specials;
    Bitset.diff_into ~into:st.verts st.u;
    Bitset.union_into ~into:st.region st.verts;
    grow st comp (new_specials @ specials)
  end

and union_specials st = function
  | [] -> ()
  | i :: rest ->
      Bitset.union_into ~into:st.verts st.special.(i);
      union_specials st rest

and collect_specials st acc i =
  if i >= n_special st then acc
  else if st.special_left.(i) && Bitset.intersects st.special.(i) st.region then begin
    st.special_left.(i) <- false;
    collect_specials st (i :: acc) (i + 1)
  end
  else collect_specials st acc (i + 1)

let rec loop st result =
  let e = Bitset.first st.remaining in
  if e >= 0 then begin
    (* Seed: the smallest remaining edge. *)
    let comp0 = Bitset.empty (Bitset.universe st.remaining) in
    Bitset.remove_in_place e st.remaining;
    Bitset.add_in_place e comp0;
    Bitset.copy_into st.h.Hypergraph.edges.(e) ~into:st.region;
    Bitset.diff_into ~into:st.region st.u;
    let comp, specials = grow st comp0 [] in
    loop st ((comp, List.sort compare specials) :: result)
  end
  else begin
    let i = first_special_left st 0 in
    if i < 0 then List.rev result
    else begin
      (* Seed: the first unplaced special edge. *)
      st.special_left.(i) <- false;
      Bitset.copy_into st.special.(i) ~into:st.region;
      Bitset.diff_into ~into:st.region st.u;
      let comp, specials =
        grow st (Bitset.empty (Bitset.universe st.remaining)) [ i ]
      in
      loop st ((comp, List.sort compare specials) :: result)
    end
  end

let components_extended h ~within ~special u =
  let ne = h.Hypergraph.n_edges in
  let nv = h.Hypergraph.n_vertices in
  (* Candidates: ordinary edges not fully inside u. Scanning edge ids and
     testing membership keeps this closure- and allocation-free. *)
  let remaining = Bitset.empty ne in
  Bitset.copy_into within ~into:remaining;
  for e = 0 to ne - 1 do
    if Bitset.mem e remaining && Bitset.subset h.Hypergraph.edges.(e) u then
      Bitset.remove_in_place e remaining
  done;
  let special_left = Array.map (fun s -> not (Bitset.subset s u)) special in
  let st =
    {
      h;
      u;
      remaining;
      touch = Bitset.empty ne;
      verts = Bitset.empty nv;
      region = Bitset.empty nv;
      special;
      special_left;
    }
  in
  loop st []

let components h ~within u =
  List.map fst (components_extended h ~within ~special:[||] u)

(* [separates] only needs the first component: if it misses any edge of
   [within] — because a second component exists or because some edge is
   absorbed by [u] — the answer is already yes, so we never materialise
   the remaining components. *)
let separates h ~within u =
  let ne = h.Hypergraph.n_edges in
  let nv = h.Hypergraph.n_vertices in
  let total = Bitset.cardinal within in
  if total = 0 then false
  else begin
    let remaining = Bitset.empty ne in
    Bitset.copy_into within ~into:remaining;
    for e = 0 to ne - 1 do
      if Bitset.mem e remaining && Bitset.subset h.Hypergraph.edges.(e) u then
        Bitset.remove_in_place e remaining
    done;
    match Bitset.choose remaining with
    | None -> true (* every edge absorbed by u *)
    | Some e ->
        let touch = Bitset.empty ne in
        let verts = Bitset.empty nv in
        let region = Bitset.empty nv in
        Bitset.remove_in_place e remaining;
        Bitset.copy_into h.Hypergraph.edges.(e) ~into:region;
        Bitset.diff_into ~into:region u;
        let count = ref 1 in
        let rec grow () =
          Hypergraph.edges_touching_into h region ~into:touch;
          Bitset.inter_into ~into:touch remaining;
          if not (Bitset.is_empty touch) then begin
            count := !count + Bitset.cardinal touch;
            Bitset.diff_into ~into:remaining touch;
            Hypergraph.vertices_of_edges_into h touch ~into:verts;
            Bitset.diff_into ~into:verts u;
            Bitset.union_into ~into:region verts;
            grow ()
          end
        in
        grow ();
        !count < total
  end

(* A vertex v outside the separator drags every edge and special that
   contains it into one component, so a separator missing a vertex of
   degree > bound (counting specials) cannot be balanced. *)
let heavy_vertices h ~within ~special =
  let nv = h.Hypergraph.n_vertices in
  let bound = (Bitset.cardinal within + Array.length special) / 2 in
  let heavy = Bitset.empty nv in
  for v = 0 to nv - 1 do
    let d = ref (Bitset.inter_cardinal h.Hypergraph.incidence.(v) within) in
    for i = 0 to Array.length special - 1 do
      if Bitset.mem v special.(i) then incr d
    done;
    if !d > bound then Bitset.add_in_place v heavy
  done;
  heavy

(* Size-only variant of [grow]: counts the edges and specials joining the
   component seeded in [region], and stops as soon as the count exceeds
   [bound] — the caller only needs to know that it does. *)
let rec grow_count st ~bound size =
  if size > bound then size
  else begin
    Hypergraph.edges_touching_into st.h st.region ~into:st.touch;
    Bitset.inter_into ~into:st.touch st.remaining;
    Hypergraph.vertices_of_edges_into st.h st.touch ~into:st.verts;
    let joined = Bitset.cardinal st.touch + take_specials st 0 0 in
    if joined = 0 then size
    else begin
      Bitset.diff_into ~into:st.remaining st.touch;
      Bitset.diff_into ~into:st.verts st.u;
      Bitset.union_into ~into:st.region st.verts;
      grow_count st ~bound (size + joined)
    end
  end

(* Specials meeting the region join: mark them placed, add their vertices
   to [verts], and count them. *)
and take_specials st n i =
  if i >= n_special st then n
  else if st.special_left.(i) && Bitset.intersects st.special.(i) st.region then begin
    st.special_left.(i) <- false;
    Bitset.union_into ~into:st.verts st.special.(i);
    take_specials st (n + 1) (i + 1)
  end
  else take_specials st n (i + 1)

(* [left] counts the edges and specials not yet placed in a component
   (absorbed edges included until they are met as seeds): once at most
   [bound] are left, no further component can be too large. *)
let rec balanced_rest st ~bound left =
  if left <= bound then true
  else begin
    let e = Bitset.first st.remaining in
    if e >= 0 then begin
      Bitset.remove_in_place e st.remaining;
      if Bitset.subset st.h.Hypergraph.edges.(e) st.u then
        balanced_rest st ~bound (left - 1)
      else begin
        Bitset.copy_into st.h.Hypergraph.edges.(e) ~into:st.region;
        Bitset.diff_into ~into:st.region st.u;
        let size = grow_count st ~bound 1 in
        size <= bound && balanced_rest st ~bound (left - size)
      end
    end
    else begin
      let i = first_special_left st 0 in
      i < 0
      || begin
           st.special_left.(i) <- false;
           Bitset.copy_into st.special.(i) ~into:st.region;
           Bitset.diff_into ~into:st.region st.u;
           let size = grow_count st ~bound 1 in
           size <= bound && balanced_rest st ~bound (left - size)
         end
    end
  end

let is_balanced h ~within ~special =
  let ne = h.Hypergraph.n_edges in
  let nv = h.Hypergraph.n_vertices in
  let n_within = Bitset.cardinal within in
  let bound = (n_within + Array.length special) / 2 in
  let heavy = heavy_vertices h ~within ~special in
  let st =
    {
      h;
      u = heavy; (* placeholder: each application sets the separator *)
      remaining = Bitset.empty ne;
      touch = Bitset.empty ne;
      verts = Bitset.empty nv;
      region = Bitset.empty nv;
      special;
      special_left = Array.make (Array.length special) false;
    }
  in
  fun u ->
    Bitset.subset heavy u
    && begin
         st.u <- u;
         Bitset.copy_into within ~into:st.remaining;
         let left = ref n_within in
         for i = 0 to Array.length special - 1 do
           let out = not (Bitset.subset special.(i) u) in
           st.special_left.(i) <- out;
           if out then incr left
         done;
         balanced_rest st ~bound !left
       end

let connected h =
  match components h ~within:(Hypergraph.all_edges h) (Bitset.empty h.Hypergraph.n_vertices) with
  | [] | [ _ ] -> true
  | _ -> false
