(** Deterministic pseudo-random numbers (splitmix64).

    Used by every workload generator so that the benchmark repository is
    reproducible bit-for-bit across runs and machines. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [lo, hi] inclusive. *)

val float : t -> float
(** Uniform in [0, 1). *)

val bool : t -> bool

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> int -> int list
(** [sample t n k] draws [k] distinct integers from [0, n). *)
