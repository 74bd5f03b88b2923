module Bitset = Kit.Bitset
module Deadline = Kit.Deadline
module Metrics = Kit.Metrics
module Hypergraph = Hg.Hypergraph

(* Search observability (see Kit.Metrics; recorded only when enabled). *)
let m_separators = Metrics.counter "balsep.separators_tried"
let m_balance_rejections = Metrics.counter "balsep.balance_rejections"
let m_special_edges = Metrics.counter "balsep.special_edges"
let m_subedge_phases = Metrics.counter "balsep.subedge_phases"

(* One observation per expanded recursion node, at its depth. Balanced
   separators halve the subproblem, so the histogram concentrates in the
   logarithmic buckets — the empirical check of the "logarithmic
   recursion depth" claim. *)
let m_depth = Metrics.histogram "balsep.depth" ~buckets:[| 1; 2; 4; 8; 16; 24; 32; 48 |]

type answer = Global_bip.answer = {
  outcome : Detk.outcome;
  exact : bool;
}

(* Special edges carry a unique id so that BuildGHD can find "its" special
   leaf in a child decomposition even when two special edges happen to have
   the same vertex set. The id is the recursion depth of the node that
   created the edge: the specials visible to any subproblem were created
   one per ancestor, at pairwise-distinct depths, so ids never collide
   where it matters. *)
type special = { sid : int; verts : Bitset.t }

let special_label s = Printf.sprintf "__special_%d" s.sid

let special_cover_elt s : Decomp.cover_elt =
  { label = special_label s; vertices = s.verts; source = Decomp.Special }

let special_leaf s : Decomp.node =
  { bag = s.verts; cover = [ special_cover_elt s ]; children = [] }

(* Re-root an immutable decomposition tree at the first node satisfying
   [pred]; the tree is undirected for this purpose. *)
let reroot root ~pred =
  let count = Decomp.size root in
  let info = Array.make count (Bitset.empty 0, []) in
  let adj = Array.make count [] in
  let target = ref (-1) in
  let counter = ref 0 in
  let rec collect (u : Decomp.node) =
    let id = !counter in
    incr counter;
    info.(id) <- (u.bag, u.cover);
    if !target < 0 && pred u then target := id;
    List.iter
      (fun c ->
        let cid = collect c in
        adj.(id) <- cid :: adj.(id);
        adj.(cid) <- id :: adj.(cid))
      u.children;
    id
  in
  ignore (collect root);
  if !target < 0 then None
  else begin
    let visited = Array.make count false in
    let rec build id : Decomp.node =
      visited.(id) <- true;
      let bag, cover = info.(id) in
      let children =
        List.filter (fun j -> not visited.(j)) adj.(id) |> List.map build
      in
      { bag; cover; children }
    in
    Some (build !target)
  end

(* Function BuildGHD: make the node (bag, cover) and graft each child
   decomposition. The connecting special edge appears in each child either
   as a dedicated leaf with λ = {s} — re-root there, drop the leaf and
   attach its neighbours — or swallowed by some larger bag B ⊇ s, in which
   case we re-root at that node and attach it whole (it shares all of s
   with our bag, so connectedness is preserved). *)
let build_ghd bag cover ~special_lab ~special_verts children : Decomp.node =
  let is_special_leaf (u : Decomp.node) =
    match u.cover with
    | [ { Decomp.label = l; source = Decomp.Special; _ } ] -> l = special_lab
    | _ -> false
  in
  let covers_special (u : Decomp.node) = Bitset.subset special_verts u.bag in
  let grafted =
    List.concat_map
      (fun child ->
        match reroot child ~pred:is_special_leaf with
        | Some r -> r.Decomp.children
        | None -> (
            match reroot child ~pred:covers_special with
            | Some r -> [ r ]
            | None ->
                (* Unreachable for decompositions produced by Decompose:
                   the special edge is always covered somewhere. *)
                assert false))
      children
  in
  { bag; cover; children = grafted }

(* A candidate pool and its flat word rows (row i is pool.(i), [w]
   words; see [Bitset.words_out]). *)
type pool = { cands : Detk.candidate array; rows : int array }

let pool_of nv cands =
  let w = Bitset.word_count nv in
  let rows = Array.make (Array.length cands * w) 0 in
  Array.iteri
    (fun i (c : Detk.candidate) ->
      Bitset.words_out ~universe:nv c.vertices rows (i * w))
    cands;
  { cands; rows }

(* Everything one search carries: the failed-subproblem memo, the
   candidate pools (the edges followed by the subedges, generated
   lazily on the first fallback), the deadline and the width. [exact]
   drops to false once a truncated subedge pool makes a "no" answer
   untrustworthy. *)
type env = {
  h : Hypergraph.t;
  k : int;
  nv : int;
  w : int;
  deadline : Deadline.t;
  use_subedges : bool;
  failed : (int list list, unit) Hashtbl.t;
  edges : pool;
  mutable extended : pool option;
  mutable exact : bool;
}

(* The edges followed by the subedges. *)
let extended env =
  match env.extended with
  | Some p -> p
  | None ->
      let { Subedges.candidates; complete } =
        Subedges.f_global ~deadline:env.deadline env.h ~k:env.k
      in
      if not complete then env.exact <- false;
      let p =
        pool_of env.nv (Array.append env.edges.cands (Array.of_list candidates))
      in
      env.extended <- Some p;
      p

let memo_key h' sp =
  let sets = Bitset.to_list h' :: List.map (fun s -> Bitset.to_list s.verts) sp in
  List.sort compare sets

let fresh_special ~depth verts =
  Metrics.incr m_special_edges;
  { sid = depth; verts }

(* Decompose one node of the recursion: the extended subhypergraph of the
   ordinary edges [h'] and the special edges [sp]. *)
let rec decompose env ~depth h' sp : Decomp.node option =
  Deadline.check env.deadline;
  Metrics.observe m_depth depth;
  let key = memo_key h' sp in
  if Hashtbl.mem env.failed key then None
  else begin
    let r = attempt env ~depth h' sp in
    if r = None then Hashtbl.replace env.failed key ();
    r
  end

and attempt env ~depth h' sp =
  let h = env.h in
  let k = env.k in
  let n_ord = Bitset.cardinal h' in
  let total = n_ord + List.length sp in
  if total = 0 then None
  else if total = 1 then
    Some
      (match (Bitset.choose h', sp) with
      | Some e, _ ->
          {
            Decomp.bag = Hypergraph.edge h e;
            cover =
              [
                {
                  Decomp.label = Hypergraph.edge_name h e;
                  vertices = Hypergraph.edge h e;
                  source = Decomp.Original e;
                };
              ];
            children = [];
          }
      | None, s :: _ -> special_leaf s
      | None, [] -> assert false)
  else if total = 2 then begin
    let elts =
      List.map
        (fun e ->
          ( Hypergraph.edge h e,
            {
              Decomp.label = Hypergraph.edge_name h e;
              vertices = Hypergraph.edge h e;
              source = Decomp.Original e;
            } ))
        (Bitset.to_list h')
      @ List.map (fun s -> (s.verts, special_cover_elt s)) sp
    in
    match elts with
    | [ (b1, c1); (b2, c2) ] ->
        Some
          {
            Decomp.bag = b1;
            cover = [ c1 ];
            children = [ { Decomp.bag = b2; cover = [ c2 ]; children = [] } ];
          }
    | _ -> assert false
  end
  else begin
    let sp_arr = Array.of_list (List.map (fun s -> s.verts) sp) in
    let sp_idx = Array.of_list sp in
    (* [vertices_of_edges] hands back a fresh accumulator we own. *)
    let scope = Hypergraph.vertices_of_edges h h' in
    Array.iter (fun s -> Bitset.union_into ~into:scope s) sp_arr;
    (* The rejection test is staged once and reused by every separator
       tried here; it reads the separator straight from its row of [acc],
       so only an accepted bag becomes a set. Rejecting is cheap
       (word-row tests, then an early-exit BFS) and touches
       neither the deadline nor the counters, so the fuel spent and every
       counter are the same as with a full component computation per
       separator. *)
    let balanced = Hg.Components.is_balanced h ~within:h' ~special:sp_arr in
    (* Row d of [acc] is the bag of the d candidates picked so far,
       already restricted to the scope: separator edges may reach into
       sibling components, and those foreign vertices must not enter
       bags here or connectedness of the final assembly breaks (covering
       and component computation are unaffected). picks.(d) is the pool
       index of the d-th pick, and λ is built only for a separator whose
       children all succeed. *)
    let w = env.w in
    let scope_row = Array.make w 0 in
    Bitset.words_out ~universe:env.nv scope scope_row 0;
    let acc = Array.make ((k + 1) * w) 0 in
    let picks = Array.make k 0 in
    let try_separator pool depth_ =
      Deadline.check env.deadline;
      Metrics.incr m_separators;
      let a0 = depth_ * w in
      let j = ref 0 in
      while !j < w && acc.(a0 + !j) = 0 do
        incr j
      done;
      if !j = w then None
      else begin
        if not (balanced acc a0) then begin
          Metrics.incr m_balance_rejections;
          None
        end
        else begin
          let bag = Bitset.empty env.nv in
          Bitset.words_in ~universe:env.nv acc a0 bag;
          let comps =
            Hg.Components.components_extended h ~within:h' ~special:sp_arr bag
          in
          let s = fresh_special ~depth bag in
          (* Solve the components in order; the first failure rejects the
             separator. *)
          let rec solve_children = function
            | [] -> Some []
            | (es, sps) :: rest -> (
                let sp = s :: List.map (fun i -> sp_idx.(i)) sps in
                match decompose env ~depth:(depth + 1) es sp with
                | None -> None
                | Some d -> Option.map (fun ds -> d :: ds) (solve_children rest))
          in
          match solve_children comps with
          | None -> None
          | Some children ->
              let cover =
                List.init depth_ (fun d ->
                    let (c : Detk.candidate) = pool.cands.(picks.(d)) in
                    {
                      Decomp.label = c.label;
                      vertices = c.vertices;
                      source = c.source;
                    })
              in
              Some
                (build_ghd bag cover ~special_lab:(special_label s)
                   ~special_verts:s.verts children)
        end
      end
    in
    (* Enumerate combinations out of [pool]; in the subedge phase at
       least one element must come from the subedge suffix. The candidate
       scan polls the deadline every 16 consultations: skipping
       out-of-scope candidates and growing partial separators used to run
       unpolled between nodes, which let a cancelled (or out-of-budget)
       search linger mid-enumeration for an unbounded stretch on wide
       instances. *)
    let enumerate pool fresh_from =
      let n = Array.length pool.cands and rows = pool.rows in
      let consults = ref 0 in
      (* Only candidates meeting the current scope help. *)
      let meets_scope i =
        let r0 = i * w in
        let j = ref 0 in
        while !j < w && rows.(r0 + !j) land scope_row.(!j) = 0 do
          incr j
        done;
        !j < w
      in
      let rec go idx depth_ has_fresh =
        if depth_ > 0 && (has_fresh || fresh_from = 0) then
          match try_separator pool depth_ with
          | Some _ as r -> r
          | None -> extend idx depth_ has_fresh
        else extend idx depth_ has_fresh
      and extend idx depth_ has_fresh =
        if depth_ = k then None else from idx depth_ has_fresh
      and from i depth_ has_fresh =
        if i >= n then None
        else begin
          incr consults;
          if !consults land 15 = 0 then Deadline.check env.deadline;
          if not (meets_scope i) then from (i + 1) depth_ has_fresh
          else begin
            let src = depth_ * w and dst = (depth_ + 1) * w and r0 = i * w in
            for j = 0 to w - 1 do
              acc.(dst + j) <-
                acc.(src + j) lor (rows.(r0 + j) land scope_row.(j))
            done;
            picks.(depth_) <- i;
            match go (i + 1) (depth_ + 1) (has_fresh || i >= fresh_from) with
            | Some _ as r -> r
            | None -> from (i + 1) depth_ has_fresh
          end
        end
      in
      go 0 0 false
    in
    match enumerate env.edges 0 with
    | Some _ as r -> r
    | None ->
        if not env.use_subedges then None
        else begin
          Metrics.incr m_subedge_phases;
          let pool = extended env and n_edges = Array.length env.edges.cands in
          if Array.length pool.cands = n_edges then None
          else enumerate pool n_edges
        end
  end

let solve ?(deadline = Deadline.none) ?(use_subedges = true) h ~k =
  if k < 1 then invalid_arg "Bal_sep.solve: k must be >= 1";
  let nv = h.Hypergraph.n_vertices in
  let env =
    {
      h;
      k;
      nv;
      w = Bitset.word_count nv;
      deadline;
      use_subedges;
      failed = Hashtbl.create 128;
      edges = pool_of nv (Array.of_list (Detk.candidates_of_edges h));
      extended = None;
      exact = true;
    }
  in
  let all = Hypergraph.all_edges h in
  if Bitset.is_empty all then
    {
      outcome =
        Detk.Decomposition
          { bag = Bitset.empty h.Hypergraph.n_vertices; cover = []; children = [] };
      exact = true;
    }
  else
    match decompose env ~depth:0 all [] with
    | Some d ->
        { outcome = Detk.Decomposition (Global_bip.fix_covers h d); exact = true }
    | None -> { outcome = Detk.No_decomposition; exact = env.exact }
    | exception Deadline.Timed_out -> { outcome = Detk.Timeout; exact = false }
