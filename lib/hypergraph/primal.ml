module Bitset = Kit.Bitset

let graph h =
  let n = h.Hypergraph.n_vertices in
  let adj = Array.make n (Bitset.empty n) in
  Array.iter
    (fun e -> Bitset.iter (fun v -> adj.(v) <- Bitset.union adj.(v) e) e)
    h.Hypergraph.edges;
  Array.mapi (fun v s -> Bitset.remove v s) adj

type heuristic = Min_fill | Min_degree

(* Number of missing edges among the neighbours of v. *)
let fill_count adj v =
  let nbrs = adj.(v) in
  let missing = ref 0 in
  Bitset.iter
    (fun a ->
      let non_adjacent = Bitset.diff (Bitset.remove a nbrs) adj.(a) in
      missing := !missing + Bitset.cardinal non_adjacent)
    nbrs;
  !missing / 2

let upper_bound ?(heuristic = Min_fill) h =
  let n = h.Hypergraph.n_vertices in
  if n = 0 then (0, [])
  else begin
    (* Work on a mutable copy of the adjacency structure. *)
    let adj = Array.map Fun.id (graph h) in
    let alive = Array.make n true in
    let width = ref 0 in
    let order = ref [] in
    for _ = 1 to n do
      (* Pick the next vertex by the greedy score. *)
      let best = ref (-1) in
      let best_score = ref max_int in
      for v = 0 to n - 1 do
        if alive.(v) then begin
          let score =
            match heuristic with
            | Min_degree -> Bitset.cardinal adj.(v)
            | Min_fill -> fill_count adj v
          in
          if score < !best_score then begin
            best_score := score;
            best := v
          end
        end
      done;
      let v = !best in
      order := v :: !order;
      width := Stdlib.max !width (Bitset.cardinal adj.(v));
      (* Eliminate: make the neighbourhood a clique, then remove v. *)
      let nbrs = adj.(v) in
      Bitset.iter
        (fun a ->
          adj.(a) <- Bitset.remove v (Bitset.union adj.(a) (Bitset.remove a nbrs)))
        nbrs;
      alive.(v) <- false;
      adj.(v) <- Bitset.empty n
    done;
    (!width, List.rev !order)
  end

let lower_bound h =
  let n = h.Hypergraph.n_vertices in
  if n = 0 then 0
  else begin
    let adj = Array.map Fun.id (graph h) in
    let alive = Array.make n true in
    let best = ref 0 in
    for _ = 1 to n do
      let v = ref (-1) and deg = ref max_int in
      for u = 0 to n - 1 do
        if alive.(u) then begin
          let d = Bitset.cardinal adj.(u) in
          if d < !deg then begin
            deg := d;
            v := u
          end
        end
      done;
      best := Stdlib.max !best !deg;
      Bitset.iter (fun a -> adj.(a) <- Bitset.remove !v adj.(a)) adj.(!v);
      alive.(!v) <- false;
      adj.(!v) <- Bitset.empty n
    done;
    !best
  end
