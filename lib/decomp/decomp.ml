module Bitset = Kit.Bitset
module Hypergraph = Hg.Hypergraph

type source = Original of int | Subedge of int | Special

type cover_elt = { label : string; vertices : Bitset.t; source : source }

type node = { bag : Bitset.t; cover : cover_elt list; children : node list }

type t = node

let rec width t =
  List.fold_left (fun m c -> Stdlib.max m (width c)) (List.length t.cover) t.children

let rec size t = 1 + List.fold_left (fun acc c -> acc + size c) 0 t.children

let nodes t =
  let rec go acc t = List.fold_left go (t :: acc) t.children in
  List.rev (go [] t)

let rec map_covers f t =
  { t with cover = List.map f t.cover; children = List.map (map_covers f) t.children }

type violation =
  | Edge_not_covered of int
  | Vertex_not_connected of int
  | Bag_not_covered of Bitset.t
  | Cover_not_an_edge of string
  | Special_condition of Bitset.t

let pp_violation h fmt = function
  | Edge_not_covered e ->
      Format.fprintf fmt "edge %s not covered by any bag" (Hypergraph.edge_name h e)
  | Vertex_not_connected v ->
      Format.fprintf fmt "vertex %s induces a disconnected subtree"
        (Hypergraph.vertex_name h v)
  | Bag_not_covered b -> Format.fprintf fmt "bag %a not covered by its lambda" Bitset.pp b
  | Cover_not_an_edge l -> Format.fprintf fmt "cover element %s is not a subedge" l
  | Special_condition b ->
      Format.fprintf fmt "special condition violated at bag %a" Bitset.pp b

(* Condition 2: for each vertex the nodes containing it must form a
   connected subtree. In a tree, a subset of nodes is connected iff
   (#nodes in subset) - (#tree edges with both ends in subset) = 1. *)
let connectedness_violations h t =
  let n = h.Hypergraph.n_vertices in
  let node_count = Array.make n 0 in
  let link_count = Array.make n 0 in
  let rec visit u =
    Bitset.iter (fun v -> node_count.(v) <- node_count.(v) + 1) u.bag;
    List.iter
      (fun c ->
        Bitset.iter (fun v -> link_count.(v) <- link_count.(v) + 1)
          (Bitset.inter u.bag c.bag);
        visit c)
      u.children
  in
  visit t;
  let violations = ref [] in
  for v = n - 1 downto 0 do
    if node_count.(v) > 0 && node_count.(v) - link_count.(v) <> 1 then
      violations := Vertex_not_connected v :: !violations
  done;
  !violations

let coverage_violations h t =
  let all = nodes t in
  let missing = ref [] in
  for e = h.Hypergraph.n_edges - 1 downto 0 do
    let edge = Hypergraph.edge h e in
    if not (List.exists (fun u -> Bitset.subset edge u.bag) all) then
      missing := Edge_not_covered e :: !missing
  done;
  !missing

let check_td h t = coverage_violations h t @ connectedness_violations h t

let cover_vertices cover =
  match cover with
  | [] -> None
  | c :: rest ->
      Some (List.fold_left (fun acc e -> Bitset.union acc e.vertices) c.vertices rest)

let ghd_extra_violations h t =
  let check_node u acc =
    let acc =
      match cover_vertices u.cover with
      | Some b when Bitset.subset u.bag b -> acc
      | Some _ | None ->
          if Bitset.is_empty u.bag then acc else Bag_not_covered u.bag :: acc
    in
    List.fold_left
      (fun acc elt ->
        let ok =
          match elt.source with
          | Original e | Subedge e ->
              e >= 0 && e < h.Hypergraph.n_edges
              && Bitset.subset elt.vertices (Hypergraph.edge h e)
          | Special -> false
        in
        if ok then acc else Cover_not_an_edge elt.label :: acc)
      acc u.cover
  in
  List.fold_left (fun acc u -> check_node u acc) [] (nodes t)

let check_ghd h t = check_td h t @ List.rev (ghd_extra_violations h t)

(* Condition 4: V(T_u) ∩ B(λ_u) ⊆ B_u for every node u, where V(T_u) is the
   union of the bags in the subtree rooted at u. Computed bottom-up. *)
let special_condition_violations h t =
  let violations = ref [] in
  let rec subtree_vertices u =
    let below =
      List.fold_left
        (fun acc c -> Bitset.union acc (subtree_vertices c))
        (Bitset.empty h.Hypergraph.n_vertices)
        u.children
    in
    let v_tu = Bitset.union u.bag below in
    (match cover_vertices u.cover with
    | Some b_lambda ->
        if not (Bitset.subset (Bitset.inter v_tu b_lambda) u.bag) then
          violations := Special_condition u.bag :: !violations
    | None -> ());
    v_tu
  in
  ignore (subtree_vertices t);
  !violations

let check_hd h t = check_ghd h t @ special_condition_violations h t

let pp h fmt t =
  let pp_bag fmt b =
    Format.fprintf fmt "{%s}"
      (String.concat ","
         (List.map (Hypergraph.vertex_name h) (Bitset.to_list b)))
  in
  let rec go indent u =
    Format.fprintf fmt "%s%a  cover=[%s]@." indent pp_bag u.bag
      (String.concat "; " (List.map (fun c -> c.label) u.cover));
    List.iter (go (indent ^ "  ")) u.children
  in
  go "" t

let to_dot h t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph decomposition {\n  node [shape=box];\n";
  let counter = ref 0 in
  let rec go u =
    let id = !counter in
    incr counter;
    let bag =
      String.concat ","
        (List.map (Hypergraph.vertex_name h) (Bitset.to_list u.bag))
    in
    let cover = String.concat "; " (List.map (fun c -> c.label) u.cover) in
    Buffer.add_string buf
      (Printf.sprintf "  n%d [label=\"{%s}\\n[%s]\"];\n" id bag cover);
    List.iter
      (fun c ->
        let cid = go c in
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" id cid))
      u.children;
    id
  in
  ignore (go t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

module Fractional = struct
  type fnode = {
    fbag : Bitset.t;
    fcover : (int * float) list;
    fchildren : fnode list;
  }

  type fhd = fnode

  let rec width t =
    let w = List.fold_left (fun acc (_, x) -> acc +. x) 0.0 t.fcover in
    List.fold_left (fun m c -> Stdlib.max m (width c)) w t.fchildren

  let nodes t =
    let rec go acc t = List.fold_left go (t :: acc) t.fchildren in
    List.rev (go [] t)

  (* Reuse the TD checks by viewing the fractional tree as an integral one
     with empty covers. *)
  let rec to_bare (u : fnode) : node =
    { bag = u.fbag; cover = []; children = List.map to_bare u.fchildren }

  let check_fhd ?(eps = 1e-6) h t =
    let bare = to_bare t in
    let td = coverage_violations h bare @ connectedness_violations h bare in
    let frac =
      List.fold_left
        (fun acc u ->
          let uncovered =
            Bitset.filter
              (fun v ->
                let w =
                  List.fold_left
                    (fun acc (e, x) ->
                      if Bitset.mem v (Hypergraph.edge h e) then acc +. x else acc)
                    0.0 u.fcover
                in
                w < 1.0 -. eps)
              u.fbag
          in
          if Bitset.is_empty uncovered then acc else Bag_not_covered u.fbag :: acc)
        [] (nodes t)
    in
    td @ List.rev frac

  let pp h fmt t =
    let rec go indent u =
      let bag =
        String.concat ","
          (List.map (Hypergraph.vertex_name h) (Bitset.to_list u.fbag))
      in
      let cover =
        String.concat "; "
          (List.map
             (fun (e, w) -> Printf.sprintf "%s:%.3f" (Hypergraph.edge_name h e) w)
             u.fcover)
      in
      Format.fprintf fmt "%s{%s}  gamma=[%s]@." indent bag cover;
      List.iter (go (indent ^ "  ")) u.fchildren
    in
    go "" t
end
