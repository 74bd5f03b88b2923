(** Fixed-universe bitsets with an immutable reference API and an
    in-place kernel for hot loops.

    All sets created from the same [universe] size are compatible; mixing
    sets of different universe sizes is a programming error and is
    rejected with [Invalid_argument]. Elements are integers in
    [0, universe).

    The immutable operations ({!union}, {!add}, ...) allocate their
    result and define the reference semantics. The in-place operations
    ({!union_into}, {!add_in_place}, ...) mutate their destination over
    the same representation — they exist so that search inner loops can
    accumulate into one owned buffer instead of allocating per step.
    Never mutate a set that anything else might still reference: the
    search cores only mutate freshly allocated accumulators or buffers
    borrowed from a {!Scratch} arena, and publish immutable snapshots. *)

type t

val empty : int -> t
(** [empty n] is the empty set over universe size [n]. *)

val full : int -> t
(** [full n] is {0, ..., n-1}. *)

val universe : t -> int
(** Universe size this set was created with. *)

val singleton : int -> int -> t
(** [singleton n x] is the set {x} over universe size [n]
    (one allocation). *)

val of_list : int -> int list -> t
(** Builds into a single buffer: one allocation however long the list. *)

val to_list : t -> int list

val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t

val copy : t -> t
(** A fresh set with the same contents — the snapshot to publish after
    in-place accumulation. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

val is_empty : t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int
val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]. *)

val intersects : t -> t -> bool
(** [intersects a b] is true iff [a] and [b] share an element. *)

val cardinal : t -> int
(** Word-parallel (SWAR) popcount: no per-bit loop, no allocation. *)

val inter_cardinal : t -> t -> int
(** [inter_cardinal a b] = [cardinal (inter a b)] without allocating. *)

val choose : t -> int option
(** Smallest element, if any. *)

val first : t -> int
(** Smallest element, or [-1] when empty — {!choose} without the option
    allocation, for hot loops. *)

val iter : (int -> unit) -> t -> unit
(** Ascending order. Set bits are located with a De Bruijn-style
    count-trailing-zeros table — cost per element is a multiply and a
    table load, not a per-bit scan. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool

val filter : (int -> bool) -> t -> t
(** Builds into a single buffer: one allocation. *)

val hash : t -> int

val pp : Format.formatter -> t -> unit
(** Prints as [{0, 3, 5}]. *)

(** {1 In-place kernel}

    All destinations must have the same universe as their arguments
    ([Invalid_argument] otherwise). Aliased arguments are fine: the ops
    are plain word loops, so e.g. [union_into ~into:s s] is a no-op. *)

val clear : t -> unit
(** Remove every element. *)

val add_in_place : int -> t -> unit
val remove_in_place : int -> t -> unit

val copy_into : t -> into:t -> unit
(** [copy_into src ~into] overwrites [into] with the contents of
    [src]. *)

val union_into : into:t -> t -> unit
(** [union_into ~into s]: [into := into ∪ s]. *)

val inter_into : into:t -> t -> unit
(** [inter_into ~into s]: [into := into ∩ s]. *)

val diff_into : into:t -> t -> unit
(** [diff_into ~into s]: [into := into ∖ s]. *)

val union_indexed_into : into:t -> t array -> t -> unit
(** [union_indexed_into ~into arr s]: [into := into ∪ ⋃ {arr.(i) | i ∈ s}],
    allocation-free. The universe of [s] must not exceed the length of
    [arr]; each [arr.(i)] visited must share [into]'s universe. This is
    the inner loop of incidence accumulation ([vertices_of_edges],
    [edges_touching]). *)

(** {1 Flat word rows}

    A search that keeps many sets of one universe can hold them as rows
    of one flat [int array], [word_count universe] words each, and run
    its inner loops as plain word loops. {!words_out} and {!words_in}
    are the only way in and out: words are opaque, and a row is only
    ever combined with rows of the same universe by [lor], [land] and
    [land lnot], which keeps the bits past the universe clear. The three
    kernels after them read elements out of a row, so that a search on
    rows never needs the bit layout itself. *)

val word_count : int -> int
(** Words per set over the given universe size. *)

val words_out : universe:int -> t -> int array -> int -> unit
(** [words_out ~universe s row off] copies the words of [s] into
    [row.(off) ...]. [Invalid_argument] if [s] is not over [universe] or
    the row is too short. *)

val words_in : universe:int -> int array -> int -> t -> unit
(** [words_in ~universe row off s] overwrites [s] with the words at
    [row.(off) ...] (written by {!words_out}, or combined from such
    rows). [Invalid_argument] as for {!words_out}. *)

val union_indexed_row :
  universe:int -> t array -> int array -> int -> into:int array -> int -> unit
(** [union_indexed_row ~universe arr idx ioff ~into off] is
    {!union_indexed_into} on rows: [into.(off ...) ∪= ⋃ {arr.(i) | i in
    the row idx.(ioff ...)}], where the index row is laid out over
    [Array.length arr] and every visited [arr.(i)] is over [universe]
    ([Invalid_argument] otherwise). Allocation-free. *)

val row_cardinal : universe:int -> int array -> int -> int
(** Number of elements of the row at [row.(off ...)], laid out over
    [universe]. *)

val row_pop : universe:int -> int array -> int -> int
(** Removes the smallest element of the row at [row.(off ...)] and
    returns it, or returns [-1] when the row is empty. *)

(** {1 Scratch arenas}

    A pool of reusable universe-sized buffers for search hot paths: a
    loop that needs a temporary set borrows one, accumulates in place,
    and releases it on the way out — zero allocations once the pool is
    warm. Borrow/release follows stack discipline across recursive
    calls (a borrowed buffer is simply absent from the pool, so callees
    cannot see it). Arenas are single-domain: create one per search
    call, never share one across domains. *)

module Scratch : sig
  type arena

  val create : unit -> arena

  val borrow : arena -> int -> t
  (** [borrow a n] is a cleared set over universe size [n], reused from
      the pool when available. It is owned by the caller until
      {!release}d. *)

  val release : arena -> t -> unit
  (** Return a borrowed buffer to the pool. The caller must not use it
      afterwards (it will be cleared and handed out again). *)
end
