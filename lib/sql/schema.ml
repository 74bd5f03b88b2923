(* Relation schemas: attribute lists per relation name, matched
   case-insensitively. Used to give table instances their full attribute
   sets during hypergraph conversion and to resolve unqualified columns. *)

type t = (string * string list) list

let empty : t = []

let norm = String.lowercase_ascii

let of_list l : t = List.map (fun (n, attrs) -> (norm n, attrs)) l

let add name attrs (t : t) : t = (norm name, attrs) :: t

let attrs (t : t) name = List.assoc_opt (norm name) t

let has_attr (t : t) name attr =
  match attrs t name with
  | None -> false
  | Some l -> List.exists (fun a -> norm a = norm attr) l
