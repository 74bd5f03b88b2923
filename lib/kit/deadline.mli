(** Cooperative deadlines for long-running searches.

    The paper runs every algorithm with a 3600 s timeout on a cluster; we
    reproduce the behaviour in-process. Search loops call {!check}
    periodically; when the wall-clock budget (or the deterministic fuel
    budget used in tests) is exhausted, {!Timed_out} is raised and the
    caller reports a timeout instead of an answer.

    Deadlines are domain-safe: fuel is an atomic counter, wall-clock
    polling uses a per-domain tick counter, and every deadline carries a
    cancel flag, so one value may be shared by several domains and one
    domain can abort its siblings (see {!Pool} and [Ghd.Portfolio.race]). *)

exception Timed_out

type t

type cancel
(** A cooperative cancel flag, shareable across domains. Deadlines carry
    one; {!with_cancel} links several deadlines to the same flag so that
    cancelling it aborts every holder at its next {!check}. *)

val none : t
(** Never times out (and cannot be cancelled). *)

val of_seconds : float -> t
(** Budget of [s] seconds from now; [of_seconds 0.0] is expired from the
    start. *)

val of_fuel : int -> t
(** Deterministic budget: times out on the [n]-th {!check}, counted
    atomically across all domains sharing the deadline. *)

val new_cancel : unit -> cancel
(** A fresh, unset flag. *)

val cancel : cancel -> unit
(** Make every deadline holding this flag expire immediately. *)

val is_cancelled : cancel -> bool

val with_cancel : cancel -> t -> t
(** [with_cancel c t] is [t] with its cancel flag replaced by [c]. The
    returned deadline shares budget state with [t] but expires as soon as
    [c] is cancelled — including for [none], which makes
    [with_cancel c none] a pure cancellation token. *)

val cancelled : t -> bool
(** Whether this deadline's own cancel flag is set. *)

val check : t -> unit
(** @raise Timed_out when the budget is exhausted or the deadline is
    cancelled. Cheap: one atomic read per call; the wall clock is
    consulted only every 1024 calls (per domain), so wall expiry is
    detected up to 1023 checks late.

    [check] is also the {!Fault} site ["deadline.poll"]: when the
    fault-injection harness is armed it may raise {!Fault.Injected} (or
    simulate allocation failure) at a chosen poll, which containment
    tests use to crash a search at arbitrary depth. Disarmed — the
    production state — this costs one atomic load. *)

val expired : t -> bool
(** Non-raising variant of {!check}. Uses the same expiry condition
    (clock [>=] deadline) but consults the clock on every call, so it can
    report expiry slightly before a pending {!check} raises. *)

val fuel_remaining : t -> int option
(** [Some n] (clamped at 0) for fuel deadlines, [None] for wall-clock and
    unlimited ones: how much of a deterministic budget a search left. *)
