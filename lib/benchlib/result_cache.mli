(** Content-addressed result store for decomposition verdicts.

    Keyed by [(fingerprint, method, k)] where the fingerprint is
    {!Hg.Hypergraph.fingerprint} — so any two structurally identical
    hypergraphs (same sorted edge multiset over vertex names, however
    numbered or serialised) share cache entries. On disk:
    [<dir>/<fp[0:2]>/<fp>-<method>-k<k>.json], one atomic-written JSON
    object per entry.

    The store is treated as untrusted input. A cached "yes" carries its
    decomposition witness and is replayed through {!Decomp_io.of_text} +
    {!Decomp.check_hd} (and a width [<= k] check) against the query
    hypergraph on every hit; any corruption or mismatch degrades to a
    miss with a ["cache.invalid"] tick — a poisoned cache can cost time,
    never correctness. "No" entries are witness-free (the verdict is a
    function of the fingerprinted structure alone). Timeouts are
    budget-dependent and never cached.

    Metrics: exactly one of ["cache.hit"] / ["cache.miss"] /
    ["cache.invalid"] per {!find_key}, ["cache.store"] per {!store_key};
    none tick when no cache is configured. *)

type t

type verdict = Yes of Decomp.t | No

val create : dir:string -> t
(** Open (creating directories as needed) a store rooted at [dir]. The
    handle is a plain path — safe to use from any domain and across
    {!Kit.Proc} forks. *)

val of_env : unit -> t option
(** [Some (create ~dir)] when the [HB_CACHE] knob ({!Kit.Config.cache}) names
    a directory, [None] otherwise. *)

type key
(** A hypergraph together with its {!Hg.Hypergraph.fingerprint},
    computed once. Abstract: only {!key} makes one, so no lookup or
    store can be handed a fingerprint that is not its graph's. *)

val key : Hg.Hypergraph.t -> key
val hypergraph : key -> Hg.Hypergraph.t
val fingerprint : key -> string

val find_key : t -> key -> meth:string -> k:int -> verdict option
(** Validated lookup; [None] on miss or on an entry that fails
    validation. A missing entry is a miss; an entry that cannot be read,
    parsed or matched against its key is invalid. [Yes d] always
    satisfies [Decomp.check_hd = []] and [Decomp.width d <= k] against
    the key's hypergraph. *)

val store_key : t -> key -> meth:string -> k:int -> verdict -> unit
(** Persist a definitive verdict (atomic write; concurrent writers of
    the same key are safe — last rename wins and both contents are
    valid). I/O failure raises [Sys_error]. *)

val find_hd : t -> key -> k:int -> Detk.outcome option
(** {!find_key} of a Check(HD,k) level, which is stored under method
    ["hd"]. *)

val solve_hd :
  t -> ?sweep:Detk.sweep_cache -> deadline:Kit.Deadline.t -> key -> k:int ->
  Detk.outcome * bool
(** One level of Check(HD,k) with the store in the loop: a validated
    hit ({!find_hd}) replaces the solve; on a miss
    {!Detk.solve} runs and a definitive verdict is stored ({!store_key}),
    a timeout is not. The flag is [true] on a hit. *)

val find : t -> Hg.Hypergraph.t -> meth:string -> k:int -> verdict option
(** [find t h] is [find_key t (key h)]. *)

val store : t -> Hg.Hypergraph.t -> meth:string -> k:int -> verdict -> unit
(** [store t h] is [store_key t (key h)]. *)
