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
  u : Bitset.t;
  remaining : Bitset.t; (* candidate edges not yet assigned *)
  touch : Bitset.t; (* per-round: remaining edges meeting the region *)
  verts : Bitset.t; (* per-round: new region vertices *)
  region : Bitset.t;
  special : Bitset.t array;
  special_left : bool array;
}

let n_special st = Array.length st.special

(* The first unplaced special edge, or -1. *)
let rec first_left left i =
  if i >= Array.length left then -1 else if left.(i) then i else first_left left (i + 1)

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
    let i = first_left st.special_left 0 in
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

(* The balance test runs on flat word rows (see [Bitset.words_out]):
   vertex rows are [wv] words, edge rows [we]. Staging copies one
   subproblem's [within] set, special edges and heavy vertices into rows
   and allocates the BFS rows; each application then runs word loops
   over them and the separator's own row, and allocates nothing. *)
type bal = {
  bh : Hypergraph.t;
  wv : int;
  we : int;
  bound : int;
  n_within : int;
  within_w : int array;
  heavy_w : int array;
  sp_w : int array; (* row i is special.(i) *)
  sp_left : bool array; (* specials not yet placed in a component *)
  rem_w : int array; (* edges of [within] not yet placed *)
  touch_w : int array; (* edges joining this round *)
  verts_w : int array; (* their vertices *)
  region_w : int array; (* the component's vertices outside u *)
  front_w : int array; (* the region vertices added last round *)
  mutable witness : bool; (* [region_w] holds the last rejection's region *)
}

let rec row_subset a ao b bo n j =
  j >= n || (a.(ao + j) land lnot b.(bo + j) = 0 && row_subset a ao b bo n (j + 1))

let rec row_meets a ao b bo n j =
  j < n && (a.(ao + j) land b.(bo + j) <> 0 || row_meets a ao b bo n (j + 1))

(* region := region ∖ u, the frontier is all of it; false if empty. *)
let seed b u uo =
  let any = ref 0 in
  for j = 0 to b.wv - 1 do
    let r = b.region_w.(j) land lnot u.(uo + j) in
    b.region_w.(j) <- r;
    b.front_w.(j) <- r;
    any := !any lor r
  done;
  !any <> 0

(* Grows the component seeded in the region by frontier rounds, counting
   the edges and specials that join, and stops as soon as the count
   exceeds [bound]: the caller only needs to know that it does. A round
   reads only the incidence of the frontier: an edge or special meeting
   an older region vertex joined in the round after that vertex did, so
   the rounds and their sizes are those of a BFS that re-reads the whole
   region each round. *)
let rec grow b u uo size =
  if size > b.bound then size
  else begin
    let h = b.bh in
    for j = 0 to b.we - 1 do
      b.touch_w.(j) <- 0
    done;
    Bitset.union_indexed_row ~universe:h.Hypergraph.n_edges h.Hypergraph.incidence
      b.front_w 0 ~into:b.touch_w 0;
    for j = 0 to b.we - 1 do
      b.touch_w.(j) <- b.touch_w.(j) land b.rem_w.(j)
    done;
    let n_touch = Bitset.row_cardinal ~universe:h.Hypergraph.n_edges b.touch_w 0 in
    (* Too large already: the specials of this round cannot help. *)
    if size + n_touch > b.bound then size + n_touch
    else begin
      for j = 0 to b.wv - 1 do
        b.verts_w.(j) <- 0
      done;
      let joined = n_touch + take_specials b 0 0 in
      if joined = 0 then size
      else begin
        for j = 0 to b.we - 1 do
          b.rem_w.(j) <- b.rem_w.(j) land lnot b.touch_w.(j)
        done;
        Bitset.union_indexed_row ~universe:h.Hypergraph.n_vertices h.Hypergraph.edges
          b.touch_w 0 ~into:b.verts_w 0;
        for j = 0 to b.wv - 1 do
          let f = b.verts_w.(j) land lnot u.(uo + j) land lnot b.region_w.(j) in
          b.front_w.(j) <- f;
          b.region_w.(j) <- b.region_w.(j) lor f
        done;
        grow b u uo (size + joined)
      end
    end
  end

(* Specials meeting the frontier join: mark them placed, add their
   vertices to [verts_w], and count them. *)
and take_specials b n i =
  if i >= Array.length b.sp_left then n
  else if b.sp_left.(i) && row_meets b.sp_w (i * b.wv) b.front_w 0 b.wv 0 then begin
    b.sp_left.(i) <- false;
    for j = 0 to b.wv - 1 do
      b.verts_w.(j) <- b.verts_w.(j) lor b.sp_w.((i * b.wv) + j)
    done;
    take_specials b (n + 1) (i + 1)
  end
  else take_specials b n (i + 1)

(* [left] counts the edges and specials not yet placed in a component
   (absorbed edges included until they are met as seeds): once at most
   [bound] are left, no further component can be too large. *)
let rec balanced_rest b u uo left =
  left <= b.bound
  ||
  let h = b.bh in
  let e = Bitset.row_pop ~universe:h.Hypergraph.n_edges b.rem_w 0 in
  if e >= 0 then begin
    Bitset.words_out ~universe:h.Hypergraph.n_vertices h.Hypergraph.edges.(e)
      b.region_w 0;
    if not (seed b u uo) then balanced_rest b u uo (left - 1) (* e ⊆ u *)
    else
      let size = grow b u uo 1 in
      size <= b.bound && balanced_rest b u uo (left - size)
  end
  else begin
    let i = first_left b.sp_left 0 in
    i < 0
    || begin
         b.sp_left.(i) <- false;
         for j = 0 to b.wv - 1 do
           b.region_w.(j) <- b.sp_w.((i * b.wv) + j)
         done;
         ignore (seed b u uo : bool) (* nonempty: the special is not ⊆ u *);
         let size = grow b u uo 1 in
         size <= b.bound && balanced_rest b u uo (left - size)
       end
  end

(* A rejection leaves in [region_w] the region R (outside that
   separator) through which more than [bound] edges and specials, each
   meeting R, were found connected. For any later separator [u] missing
   R, those items still meet vertices outside [u] and still connect
   through R, so they lie in one [u]-component: [u] is unbalanced too,
   and the BFS is skipped. *)
let balanced b u uo =
  row_subset b.heavy_w 0 u uo b.wv 0
  && (not (b.witness && not (row_meets b.region_w 0 u uo b.wv 0)))
  && begin
       for j = 0 to b.we - 1 do
         b.rem_w.(j) <- b.within_w.(j)
       done;
       let left = ref b.n_within in
       for i = 0 to Array.length b.sp_left - 1 do
         let out = not (row_subset b.sp_w (i * b.wv) u uo b.wv 0) in
         b.sp_left.(i) <- out;
         if out then incr left
       done;
       let ok = balanced_rest b u uo !left in
       b.witness <- not ok;
       ok
     end

let is_balanced h ~within ~special =
  let nv = h.Hypergraph.n_vertices and ne = h.Hypergraph.n_edges in
  let wv = Bitset.word_count nv and we = Bitset.word_count ne in
  let row universe s =
    let r = Array.make (Bitset.word_count universe) 0 in
    Bitset.words_out ~universe s r 0;
    r
  in
  let sp_w = Array.make (Array.length special * wv) 0 in
  Array.iteri (fun i s -> Bitset.words_out ~universe:nv s sp_w (i * wv)) special;
  let n_within = Bitset.cardinal within in
  let b =
    {
      bh = h;
      wv;
      we;
      bound = (n_within + Array.length special) / 2;
      n_within;
      within_w = row ne within;
      heavy_w = row nv (heavy_vertices h ~within ~special);
      sp_w;
      sp_left = Array.make (Array.length special) false;
      rem_w = Array.make we 0;
      touch_w = Array.make we 0;
      verts_w = Array.make wv 0;
      region_w = Array.make wv 0;
      front_w = Array.make wv 0;
      witness = false;
    }
  in
  fun u uo -> balanced b u uo

let connected h =
  match components h ~within:(Hypergraph.all_edges h) (Bitset.empty h.Hypergraph.n_vertices) with
  | [] | [ _ ] -> true
  | _ -> false
