(* Rows are stored in column-sorted order; a relation is a sorted column
   list plus a hash-set of rows. *)

module Row_set = Set.Make (struct
  type t = int array

  let compare = Stdlib.compare
end)

type t = {
  cols : int list;  (* sorted *)
  data : Row_set.t;
}

let columns t = t.cols
let rows t = Row_set.elements t.data
let cardinality t = Row_set.cardinal t.data
let is_empty t = Row_set.is_empty t.data

let unit_relation = { cols = []; data = Row_set.singleton [||] }

let create ~columns rows =
  let n = List.length columns in
  if List.length (List.sort_uniq compare columns) <> n then
    invalid_arg "Relation.create: duplicate columns";
  (* Store rows permuted into sorted-column order. *)
  let order =
    List.mapi (fun i c -> (c, i)) columns |> List.sort compare |> List.map snd
  in
  let sorted_cols = List.sort compare columns in
  let perm = Array.of_list order in
  let data =
    List.fold_left
      (fun acc row ->
        if Array.length row <> n then
          invalid_arg "Relation.create: row arity mismatch";
        Row_set.add (Array.map (fun i -> row.(i)) perm) acc)
      Row_set.empty rows
  in
  { cols = sorted_cols; data }

(* Positions of [sub] columns within [cols]. *)
let positions cols sub =
  let indexed = List.mapi (fun i c -> (c, i)) cols in
  List.map
    (fun c ->
      match List.assoc_opt c indexed with
      | Some i -> i
      | None -> invalid_arg "Relation: column not present")
    sub

let key_of positions row = List.map (fun i -> row.(i)) positions

let project t cols =
  let cols = List.sort_uniq compare cols in
  let pos = positions t.cols cols in
  let data =
    Row_set.fold
      (fun row acc -> Row_set.add (Array.of_list (key_of pos row)) acc)
      t.data Row_set.empty
  in
  { cols; data }

let shared_columns a b = List.filter (fun c -> List.mem c b.cols) a.cols

let group_by_key pos t =
  let tbl = Hashtbl.create (max 16 (Row_set.cardinal t.data)) in
  Row_set.iter
    (fun row ->
      let key = key_of pos row in
      Hashtbl.replace tbl key (row :: (Option.value (Hashtbl.find_opt tbl key) ~default:[])))
    t.data;
  tbl

let join a b =
  let shared = shared_columns a b in
  let pa = positions a.cols shared and pb = positions b.cols shared in
  let index = group_by_key pb b in
  (* Output columns: all of a's plus b's non-shared, in sorted order. *)
  let b_extra = List.filter (fun c -> not (List.mem c a.cols)) b.cols in
  let out_cols = List.sort compare (a.cols @ b_extra) in
  let a_indexed = List.mapi (fun i x -> (x, i)) a.cols in
  let b_indexed = List.mapi (fun i x -> (x, i)) b.cols in
  (* For each output column: where to fetch it from. *)
  let fetch =
    List.map
      (fun c ->
        match List.assoc_opt c a_indexed with
        | Some i -> `A i
        | None -> `B (List.assoc c b_indexed))
      out_cols
  in
  let data =
    Row_set.fold
      (fun ra acc ->
        let key = key_of pa ra in
        match Hashtbl.find_opt index key with
        | None -> acc
        | Some matches ->
            List.fold_left
              (fun acc rb ->
                let out =
                  Array.of_list
                    (List.map
                       (function `A i -> ra.(i) | `B i -> rb.(i))
                       fetch)
                in
                Row_set.add out acc)
              acc matches)
      a.data Row_set.empty
  in
  { cols = out_cols; data }

let semijoin a b =
  let shared = shared_columns a b in
  let pa = positions a.cols shared and pb = positions b.cols shared in
  let keys = Hashtbl.create 64 in
  Row_set.iter (fun rb -> Hashtbl.replace keys (key_of pb rb) ()) b.data;
  let data = Row_set.filter (fun ra -> Hashtbl.mem keys (key_of pa ra)) a.data in
  { a with data }

let equal a b = a.cols = b.cols && Row_set.equal a.data b.data
