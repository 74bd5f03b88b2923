(** Hypergraph decompositions and their validators (paper §3.2).

    A decomposition is a rooted tree of nodes; every node has a bag (vertex
    set) and an integral edge cover. Cover elements remember where they came
    from: an original edge, a subedge of an original edge (produced by the
    GHD algorithms of §4), or a special edge (internal to BalSep; none
    survive in final results). Validation distinguishes tree decompositions,
    GHDs (conditions 1-3) and HDs (plus the special condition 4).

    Fractional covers for FHDs live in {!Fractional}. *)

type source =
  | Original of int  (** edge id in the hypergraph *)
  | Subedge of int  (** subset of the edge with this id *)
  | Special  (** BalSep-internal special edge *)

type cover_elt = {
  label : string;
  vertices : Kit.Bitset.t;
  source : source;
}

type node = {
  bag : Kit.Bitset.t;
  cover : cover_elt list;
  children : node list;
}

type t = node

val width : t -> int
(** Maximum cover size over all nodes. *)

val size : t -> int
(** Number of nodes. *)

val nodes : t -> node list
(** Preorder list of all nodes. *)

val map_covers : (cover_elt -> cover_elt) -> t -> t

type violation =
  | Edge_not_covered of int  (** TD condition 1 *)
  | Vertex_not_connected of int  (** TD condition 2 *)
  | Bag_not_covered of Kit.Bitset.t  (** GHD condition 3 *)
  | Cover_not_an_edge of string  (** cover element is not ⊆ an edge of H *)
  | Special_condition of Kit.Bitset.t  (** HD condition 4 *)

val pp_violation : Hg.Hypergraph.t -> Format.formatter -> violation -> unit

val check_td : Hg.Hypergraph.t -> t -> violation list
(** Conditions 1 and 2 of a tree decomposition. *)

val check_ghd : Hg.Hypergraph.t -> t -> violation list
(** TD conditions plus: each bag covered by its cover, and each cover
    element a subset of an original edge. An empty list means the tree is
    a valid GHD of the hypergraph. *)

val check_hd : Hg.Hypergraph.t -> t -> violation list
(** GHD conditions plus the special condition: for every node [u],
    V(T_u) ∩ B(λ_u) ⊆ B_u. *)

val pp : Hg.Hypergraph.t -> Format.formatter -> t -> unit
(** Indented tree with named bags and covers. *)

val to_dot : Hg.Hypergraph.t -> t -> string
(** GraphViz rendering. *)

module Fractional : sig
  type fnode = {
    fbag : Kit.Bitset.t;
    fcover : (int * float) list;  (** (edge id, weight), weights in (0,1] *)
    fchildren : fnode list;
  }

  type fhd = fnode

  val width : fhd -> float
  (** Maximum total cover weight over all nodes. *)

  val nodes : fhd -> fnode list

  val check_fhd : ?eps:float -> Hg.Hypergraph.t -> fhd -> violation list
  (** TD conditions plus fractional coverage of each bag: every bag vertex
      must accumulate weight >= 1 - eps from cover edges containing it. *)

  val pp : Hg.Hypergraph.t -> Format.formatter -> fhd -> unit
end
