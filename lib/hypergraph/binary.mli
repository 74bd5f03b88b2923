(** Compact binary hypergraph codec — the payload format of the packed
    repository ([Benchlib.Repository.pack]).

    One hypergraph encodes as, all integers {!Kit.Varint}:

    {v
    n_vertices  n_edges
    vertex_names   (length-prefixed bytes, id order)
    edge_names     (length-prefixed bytes, id order)
    per edge: member count, then delta-encoded ascending vertex ids
              (first id + 1, then successive gaps, every delta >= 1)
    v}

    The encoding preserves ids and names exactly — unlike the text
    format there is no interning pass, so [of_string_report (to_string h)]
    reproduces [h] bit-for-bit (same ids, same names, arbitrary bytes
    allowed in names). Encodings are smaller than the text form (names
    are stored once instead of once per occurrence) and decode without
    any lexing. *)

val to_string : Hypergraph.t -> string

val of_string_report : string -> (Hypergraph.t, Kit.Diag.t) result
(** Decode one hypergraph, requiring the whole string to be consumed;
    inputs over [HB_MAX_INPUT] bytes are refused up front. Any
    corruption — truncation, non-ascending edge members, out-of-range
    ids, absurd counts, trailing bytes — is a clean [Error], never an
    exception or a wrong graph. The diagnostic's span anchors at the
    byte offset where corruption was detected. *)
