(** Hypergraphs: the structure underlying CQs and CSPs (paper §3.1).

    A hypergraph is a set of named vertices and named non-empty hyperedges.
    Vertices and edges are represented by dense integer ids; vertex sets are
    {!Kit.Bitset.t} over universe [n_vertices], edge sets over universe
    [n_edges]. There are no isolated vertices by construction when using
    {!of_named_edges}. *)

type t = private {
  n_vertices : int;
  n_edges : int;
  edges : Kit.Bitset.t array;  (** edge id -> set of vertices *)
  incidence : Kit.Bitset.t array;  (** vertex id -> set of edge ids *)
  vertex_names : string array;
  edge_names : string array;
}

val create :
  vertex_names:string array -> edge_names:string array -> int list array -> t
(** [create ~vertex_names ~edge_names members] builds a hypergraph where
    edge [i] contains the vertex ids [members.(i)].
    @raise Invalid_argument on empty edges, duplicate names or bad ids. *)

val of_named_edges : (string * string list) list -> t
(** Build from [(edge_name, vertex_names)] pairs, interning vertex names in
    order of first occurrence. Duplicate edge contents are kept (use
    {!dedup_edges} to drop them). *)

val of_int_edges : int list list -> t
(** Synthetic names [v0..], [e0..]; vertex universe is the max id + 1. *)

val edge : t -> int -> Kit.Bitset.t
val vertices : t -> Kit.Bitset.t
(** All vertices (the full universe). *)

val all_edges : t -> Kit.Bitset.t
(** All edge ids as a set. *)

val vertex_name : t -> int -> string
val edge_name : t -> int -> string

val vertices_of_edges : t -> Kit.Bitset.t -> Kit.Bitset.t
(** Union of the member sets of the given edges: V(S). Accumulates into
    one fresh buffer — a single allocation. *)

val vertices_of_edges_into : t -> Kit.Bitset.t -> into:Kit.Bitset.t -> unit
(** Allocation-free {!vertices_of_edges}: clears [into] (universe
    [n_vertices]) and accumulates V(S) there. *)

val edges_touching : t -> Kit.Bitset.t -> Kit.Bitset.t
(** All edges intersecting the given vertex set. Accumulates into one
    fresh buffer — a single allocation. *)

val edges_touching_into : t -> Kit.Bitset.t -> into:Kit.Bitset.t -> unit
(** Allocation-free {!edges_touching}: clears [into] (universe
    [n_edges]) and accumulates there. *)

val arity : t -> int
(** Maximum edge cardinality (0 for the empty hypergraph). *)

val dedup_edges : t -> t
(** Drop edges whose vertex set equals an earlier edge's, and edges that are
    empty. Keeps the first name. *)

val compact : t -> t
(** Drop isolated vertices (paper hypergraphs have none by definition),
    renumbering the rest while keeping their names. *)

val covers : t -> Kit.Bitset.t -> Kit.Bitset.t -> bool
(** [covers h lambda x]: is the vertex set [x] contained in B(lambda), the
    union of the edges [lambda]? *)

val equal_structure : t -> t -> bool
(** Same vertex count, edge count, and same multiset of edge vertex sets
    compared via vertex {e names} (so the relation is stable under any
    renumbering; edge names are ignored). *)

val fingerprint : t -> string
(** Canonical content fingerprint: 16 lowercase hex characters of a
    64-bit digest ({!Kit.Hash64}) over the sorted edge multiset on
    vertex names — the canon of {!equal_structure}. Invariant under any
    vertex or edge reordering/renumbering and under every serialisation
    round-trip; graphs distinct up to {!dedup_edges} get distinct
    fingerprints (64-bit birthday bound). This is the key of the
    content-addressed result cache and the packed repository, so its
    value is stable across versions (pinned by tests). *)

val pp : Format.formatter -> t -> unit
(** HyperBench text format: one [name(v1,v2,...)] per line, comma-separated,
    final full stop. Names outside the identifier alphabet (or empty)
    are emitted as ["..."] with [\\]-escaped ['"'] and ['\\'], so the
    output re-parses to the exact same names. *)

val to_string : t -> string

val parse_report : string -> (t, Kit.Diag.t list) result
(** Parse the HyperBench text format produced by {!pp}. Whitespace and
    line breaks are flexible; [%] starts a comment line; names may be
    bare identifiers or ["..."]-quoted strings. Errors are span
    diagnostics; panic-mode recovery resyncs after a broken edge so one
    pass reports several independent mistakes (capped at 20). Inputs
    over [HB_MAX_INPUT] bytes are refused up front. *)
