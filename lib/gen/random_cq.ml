module Rng = Kit.Rng

let chain rng ~n_edges ~arity =
  if n_edges < 1 || arity < 2 then invalid_arg "Random_cq.chain";
  let edges = ref [] in
  let next = ref 0 in
  let tail = ref (-1) in
  for _ = 1 to n_edges do
    let a = 2 + Rng.int rng (arity - 1) in
    let fresh_count = if !tail >= 0 then a - 1 else a in
    let fresh = List.init fresh_count (fun i -> !next + i) in
    next := !next + fresh_count;
    let members = if !tail >= 0 then !tail :: fresh else fresh in
    tail := List.nth members (List.length members - 1);
    edges := members :: !edges
  done;
  Hg.Hypergraph.of_int_edges (List.rev !edges)

let star rng ~n_edges ~arity =
  if n_edges < 1 || arity < 2 then invalid_arg "Random_cq.star";
  let next = ref 1 in
  let edges =
    List.init n_edges (fun _ ->
        let a = 2 + Rng.int rng (arity - 1) in
        let members = 0 :: List.init (a - 1) (fun i -> !next + i) in
        next := !next + a - 1;
        members)
  in
  Hg.Hypergraph.of_int_edges edges

let random rng ~n_vertices ~n_edges ~max_arity =
  if n_vertices < 2 || n_edges < 1 || max_arity < 2 then
    invalid_arg "Random_cq.random";
  let max_arity = Stdlib.min max_arity n_vertices in
  let edges =
    List.init n_edges (fun _ ->
        let a = 2 + Rng.int rng (max_arity - 1) in
        Rng.sample rng n_vertices (Stdlib.min a n_vertices))
  in
  (* Re-number to the used vertices so none are isolated. *)
  let used = List.sort_uniq compare (List.concat edges) in
  let renumber = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace renumber v i) used;
  Hg.Hypergraph.of_int_edges
    (List.map (List.map (Hashtbl.find renumber)) edges)
