module Bitset = Kit.Bitset
module Deadline = Kit.Deadline
module Metrics = Kit.Metrics
module Hypergraph = Hg.Hypergraph

(* Search observability (see Kit.Metrics; recorded only when enabled). *)
let m_subproblems = Metrics.counter "detk.subproblems"
let m_covers = Metrics.counter "detk.cover_combinations"
let m_memo_hits = Metrics.counter "detk.memo_hits"
let m_memo_misses = Metrics.counter "detk.memo_misses"
let m_bag_rejections = Metrics.counter "detk.bag_filter_rejections"

type candidate = {
  label : string;
  vertices : Bitset.t;
  source : Decomp.source;
}

type outcome =
  | Decomposition of Decomp.t
  | No_decomposition
  | Timeout

let candidates_of_edges h =
  List.init h.Hypergraph.n_edges (fun e ->
      {
        label = Hypergraph.edge_name h e;
        vertices = Hypergraph.edge h e;
        source = Decomp.Original e;
      })

let to_cover_elt c : Decomp.cover_elt =
  { label = c.label; vertices = c.vertices; source = c.source }

(* The candidates meeting [scope], in list order, counted and then
   copied into one array: no intermediate list. *)
let rec count_meeting scope n = function
  | [] -> n
  | c :: rest ->
      count_meeting scope
        (if Bitset.intersects c.vertices scope then n + 1 else n)
        rest

let rec fill_meeting scope a i = function
  | [] -> ()
  | c :: rest ->
      if Bitset.intersects c.vertices scope then begin
        a.(i) <- c;
        fill_meeting scope a (i + 1) rest
      end
      else fill_meeting scope a i rest

let relevant_of scope cands =
  match count_meeting scope 0 cands with
  | 0 -> [||]
  | n ->
      (* Every cell is overwritten; the head only types the array. *)
      let a = Array.make n (List.hd cands) in
      fill_meeting scope a 0 cands;
      a

(* Memo keys carry their hash: a key is probed (and possibly stored) once
   per subproblem but hashed on every bucket comparison, so rescanning
   both bitsets per probe was pure waste. *)
module Key = struct
  type t = { comp : Bitset.t; conn : Bitset.t; hash : int }

  let make comp conn =
    { comp; conn; hash = ((Bitset.hash comp * 31) + Bitset.hash conn) land max_int }

  let equal a b =
    a.hash = b.hash && Bitset.equal a.comp b.comp && Bitset.equal a.conn b.conn

  let hash k = k.hash
end

module Cache = Hashtbl.Make (Key)

(* The failed-subproblem cache maps (comp, conn) to the largest width at
   which the subproblem is *proven* to have no decomposition. Failure is
   monotone downward in k — a cover of <= k sets is also a cover of
   <= k+1 sets, so "no decomposition at k" implies "none at any k' <= k" —
   and that is exactly the direction a shared table may answer. The
   converse is NOT sound: a subproblem that failed at k can succeed at
   k+1 (its children get wider bags too), so an ascending k-sweep never
   takes a cross-k hit and explores bit-identically to a fresh table; the
   sharing pays off when the same width is probed again (budget-escalation
   retries, repeated analyses) or when widths are probed downward. *)
type sweep_cache = int Cache.t

let sweep_cache () : sweep_cache = Cache.create 256

(* The search for one subproblem (comp, conn):
   - candidates are the cover sets intersecting V(comp) ∪ conn;
   - a cover λ (1..k sets) must satisfy conn ⊆ B(λ);
   - the bag is B(λ) ∩ (V(comp) ∪ conn), which enforces the special
     condition of HDs;
   - the bag must reach into the component and every child component must
     be strictly smaller (guaranteed for normal-form HDs, cf. GLS02
     Theorem 5.4), which bounds the recursion depth.

   Hot-path discipline: a search node pays one [Deadline.check] and
   otherwise runs plain word loops over flat rows ([Bitset.words_out]
   fills them once per subproblem), so it allocates nothing and calls
   into no other module. λ is an index stack. Only values that escape
   the search — bags, child connectors, memo keys — are freshly
   allocated. *)
let solve_gen ?(deadline = Deadline.none) ?(memoize = true) ?sweep ?extra
    ?(bag_filter = fun _ -> true) ~candidates h ~k =
  if k < 1 then invalid_arg "Detk.solve_gen: k must be >= 1";
  let nv = h.Hypergraph.n_vertices in
  let w = Bitset.word_count nv in
  let failed : sweep_cache =
    match sweep with Some t -> t | None -> Cache.create 256
  in
  let arena = Bitset.Scratch.create () in
  let rec decompose comp conn =
    Deadline.check deadline;
    let key = Key.make comp conn in
    let hit =
      memoize
      &&
      match Cache.find_opt failed key with
      | Some k' -> k' >= k
      | None -> false
    in
    if hit then begin
      Metrics.incr m_memo_hits;
      None
    end
    else begin
      if memoize then Metrics.incr m_memo_misses;
      let result = attempt comp conn in
      if result = None && memoize then begin
        match Cache.find_opt failed key with
        | Some k' when k' >= k -> ()
        | _ -> Cache.replace failed key k
      end;
      result
    end
  and attempt comp conn =
    Metrics.incr m_subproblems;
    let comp_vertices = Bitset.Scratch.borrow arena nv in
    Hypergraph.vertices_of_edges_into h comp ~into:comp_vertices;
    let scope = Bitset.Scratch.borrow arena nv in
    Bitset.copy_into comp_vertices ~into:scope;
    Bitset.union_into ~into:scope conn;
    let conn_row = Array.make w 0 and comp_row = Array.make w 0 in
    Bitset.words_out ~universe:nv conn conn_row 0;
    Bitset.words_out ~universe:nv comp_vertices comp_row 0;
    let try_with cands =
      let relevant = relevant_of scope cands in
      let n = Array.length relevant in
      (* Heuristic order: cover more of the connector first, then more of
         the component. Ranks are computed once, not per comparison;
         [order] is sorted, not the candidates, and [Array.sort] makes
         the same comparisons either way, so ties keep their order. *)
      let rank =
        Array.map
          (fun c ->
            (Bitset.inter_cardinal c.vertices conn * 10000)
            + Bitset.inter_cardinal c.vertices comp_vertices)
          relevant
      in
      let order = Array.init n Fun.id in
      Array.sort (fun a b -> Int.compare rank.(b) rank.(a)) order;
      (* Row i of [cand] is relevant.(order.(i)); row i of [suffix] the union of
         rows i.. of [cand], used to prune branches that can no longer
         cover the connector (row n is empty); row d of [covered] is
         B(λ) for the d candidates picked so far, and depth d+1
         overwrites its row on every branch. picks.(d) is the index of
         the d-th pick. *)
      let cand = Array.make (n * w) 0 in
      Array.iteri
        (fun i o ->
          Bitset.words_out ~universe:nv relevant.(o).vertices cand (i * w))
        order;
      let suffix = Array.make ((n + 1) * w) 0 in
      for i = n - 1 downto 0 do
        for j = 0 to w - 1 do
          suffix.((i * w) + j) <- suffix.(((i + 1) * w) + j) lor cand.((i * w) + j)
        done
      done;
      let covered = Array.make ((k + 1) * w) 0 in
      let picks = Array.make k 0 in
      (* conn ∖ covered(d) ⊆ suffix(idx): the rest can still cover conn. *)
      let coverable d idx =
        let c0 = d * w and s0 = idx * w in
        let j = ref 0 in
        while
          !j < w
          && conn_row.(!j) land lnot covered.(c0 + !j) land lnot suffix.(s0 + !j) = 0
        do
          incr j
        done;
        !j = w
      in
      let covers_conn d =
        let c0 = d * w in
        let j = ref 0 in
        while !j < w && conn_row.(!j) land lnot covered.(c0 + !j) = 0 do
          incr j
        done;
        !j = w
      in
      (* B(λ) ∩ V(comp) ≠ ∅; V(comp) ⊆ scope, so this is the bag's. *)
      let reaches_comp d =
        let c0 = d * w in
        let j = ref 0 in
        while !j < w && covered.(c0 + !j) land comp_row.(!j) = 0 do
          incr j
        done;
        !j < w
      in
      let evaluate depth =
        Metrics.incr m_covers;
        if not (reaches_comp depth) then None
        else begin
          (* Fresh: the bag escapes into the decomposition on success and
             is handed to the caller's [bag_filter] either way. *)
          let bag = Bitset.empty nv in
          Bitset.words_in ~universe:nv covered (depth * w) bag;
          Bitset.inter_into ~into:bag scope;
          if not (bag_filter bag) then begin
            Metrics.incr m_bag_rejections;
            None
          end
          else begin
            let comps = Hg.Components.components h ~within:comp bag in
            let total = Bitset.cardinal comp in
            if List.exists (fun c -> Bitset.cardinal c >= total) comps then None
            else
              let rec build = function
                | [] -> Some []
                | c :: rest -> (
                    let child_conn =
                      let cv = Bitset.Scratch.borrow arena nv in
                      Hypergraph.vertices_of_edges_into h c ~into:cv;
                      let conn' = Bitset.inter cv bag in
                      Bitset.Scratch.release arena cv;
                      conn'
                    in
                    match decompose c child_conn with
                    | None -> None
                    | Some node -> (
                        match build rest with
                        | None -> None
                        | Some nodes -> Some (node :: nodes)))
              in
              match build comps with
              | None -> None
              | Some children ->
                  Some
                    {
                      Decomp.bag;
                      cover =
                        List.init depth (fun d ->
                            to_cover_elt relevant.(order.(picks.(d))));
                      children;
                    }
          end
        end
      in
      let rec search idx depth =
        Deadline.check deadline;
        (* Prune: remaining candidates can never finish covering conn. *)
        if not (coverable depth idx) then None
        else begin
          let here =
            if depth > 0 && covers_conn depth then evaluate depth else None
          in
          match here with
          | Some _ as r -> r
          | None -> if depth = k || idx >= n then None else try_from idx depth
        end
      and try_from i depth =
        if i >= n then None
        else begin
          let src = depth * w and dst = (depth + 1) * w and c0 = i * w in
          for j = 0 to w - 1 do
            covered.(dst + j) <- covered.(src + j) lor cand.(c0 + j)
          done;
          picks.(depth) <- i;
          match search (i + 1) (depth + 1) with
          | Some _ as r -> r
          | None -> try_from (i + 1) depth
        end
      in
      search 0 0
    in
    let r =
      match try_with candidates with
      | Some _ as r -> r
      | None -> (
          match extra with
          | None -> None
          | Some f -> (
              match f ~comp ~conn with
              | [] -> None
              | extras -> try_with (candidates @ extras)))
    in
    Bitset.Scratch.release arena scope;
    Bitset.Scratch.release arena comp_vertices;
    r
  in
  let all = Hypergraph.all_edges h in
  if Bitset.is_empty all then
    Decomposition
      { Decomp.bag = Bitset.empty nv; cover = []; children = [] }
  else
    match decompose all (Bitset.empty nv) with
    | Some d -> Decomposition d
    | None -> No_decomposition
    | exception Deadline.Timed_out -> Timeout

(* Width-1 HD from a GYO join tree: one node per edge, ears hang under
   their witnesses, component roots chain under the first root. *)
let decomposition_of_join_tree h (jt : Hg.Gyo.join_tree) =
  let m = h.Hypergraph.n_edges in
  let children = Array.make m [] in
  Array.iteri
    (fun e p -> if p >= 0 then children.(p) <- e :: children.(p))
    jt.Hg.Gyo.parent;
  let rec build e =
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
      children = List.map build children.(e);
    }
  in
  match jt.Hg.Gyo.roots with
  | [] -> { Decomp.bag = Bitset.empty h.Hypergraph.n_vertices; cover = []; children = [] }
  | r :: rest ->
      let root = build r in
      { root with children = root.Decomp.children @ List.map build rest }

let solve ?deadline ?memoize ?sweep ?(gyo_fast_path = true) h ~k =
  if k = 1 && gyo_fast_path then
    (* Check(HD,1) is acyclicity: answer via GYO instead of search. *)
    match Hg.Gyo.reduce h with
    | Some jt -> Decomposition (decomposition_of_join_tree h jt)
    | None -> No_decomposition
  else solve_gen ?deadline ?memoize ?sweep ~candidates:(candidates_of_edges h) h ~k

let hypertree_width ?(deadline = Deadline.none) ?max_k ?sweep h =
  let max_k =
    match max_k with Some m -> m | None -> Stdlib.max 1 h.Hypergraph.n_edges
  in
  (* One failed-subproblem table for the whole sweep: each level records
     its proofs, so any later probe at the same (or a smaller) width —
     e.g. a retry with a bigger budget — starts from everything already
     proven instead of from scratch. Ascending levels never hit entries
     from below (see [sweep_cache]), so the sweep's own counters are
     identical to per-level fresh tables. *)
  let sweep = match sweep with Some s -> s | None -> sweep_cache () in
  let rec go k =
    if k > max_k then (None, k)
    else
      match solve ~deadline ~sweep h ~k with
      | Decomposition d -> (Some (k, d), k)
      | No_decomposition -> go (k + 1)
      | Timeout -> (None, k)
  in
  go 1
