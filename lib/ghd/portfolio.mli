(** Combined ghw computation (paper §6.4, Table 4): the paper runs
    GlobalBIP, LocalBIP and BalSep in parallel and takes the first
    answer, reporting which algorithm decided. Three entry points run
    that portfolio: {!check} runs the members one after another with a
    per-algorithm budget — BalSep first (best on "no" instances), then
    LocalBIP, then GlobalBIP; {!race} runs them concurrently on domains;
    {!race_isolated} runs them concurrently as forked processes. *)

type algorithm =
  | Bal_sep_alg
  | Par_bal_sep_alg
      (** Retired: the intra-parallel BalSep is gone. No member list, CLI
          method or daemon method produces this constructor; it is kept
          only so that existing matches on it still compile, and every
          function here treats it exactly as {!Bal_sep_alg}. *)
  | Local_bip_alg
  | Global_bip_alg

val algorithm_name : algorithm -> string

type verdict =
  | Yes of Decomp.t * algorithm
  | No of algorithm
  | All_timeout

val methods : (string * algorithm) list
(** The method table: the paper's three members, each under the
    lower-case name by which the CLI ([decompose -m]) and the daemon
    ([method=]) offer it. *)

val order : algorithm list
(** The members of {!methods}, in the order {!check} runs them. *)

val solve :
  algorithm -> deadline:Kit.Deadline.t -> Hg.Hypergraph.t -> k:int ->
  Global_bip.answer
(** Run one member on Check(GHD,k), unguarded: no containment, no fault
    site, no win counter. *)

val check :
  ?budget:(unit -> Kit.Deadline.t) -> Hg.Hypergraph.t -> k:int -> verdict
(** Check(GHD,k) with the portfolio, members in {!order}. [budget]
    produces a fresh deadline per algorithm (default: none). Inexact
    "no" answers (truncated subedge sets) are treated as timeouts so that
    [No] is always trustworthy.

    Containment: every member runs inside {!Kit.Guard.run}, so a member
    that crashes, overflows its stack or trips the [HB_MEM_MB] budget is
    recorded in the ["portfolio.member_crash"] metric and contributes no
    verdict — the remaining members still decide. The fault-injection
    sites ["portfolio.balsep"], ["portfolio.localbip"] and
    ["portfolio.globalbip"] let tests kill one member deliberately. *)

val race :
  ?budget:(unit -> Kit.Deadline.t) -> Hg.Hypergraph.t -> k:int -> verdict
(** Like {!check}, but the paper's actual protocol: all members run
    concurrently on separate domains, and the first exact verdict
    cancels the others cooperatively. The yes/no/timeout classification
    agrees with {!check} (every exact answer is sound); the reported
    winning algorithm and the witness decomposition may differ, since they
    depend on which algorithm finishes first.

    Loser discipline: a member whose flag is pulled raises out of its
    next [Deadline.check] {e before} any search metric ticks, so a
    cancelled member contributes nothing to the solver counters; it
    records exactly one ["portfolio.cancelled_members"] tick and one
    ["portfolio.cancel_latency"] span, both portfolio-side. *)

val race_isolated :
  ?budget:(unit -> Kit.Deadline.t) ->
  ?mem_mb:int ->
  ?wall:float ->
  Hg.Hypergraph.t ->
  k:int ->
  verdict
(** {!race} under hard isolation ([decompose --isolate]): each member
    runs in its own forked process via {!Kit.Proc}, and the first exact
    verdict hard-kills the losers with [SIGKILL] instead of waiting for
    their next cooperative check — a member that stops polling its
    deadline cannot delay the portfolio. [wall] (default [HB_WALL], else 3600)
    bounds every member's wall-clock run; [mem_mb] (default [HB_MEM_MB])
    is each member's hard memory rlimit. Killed losers are classified as
    timeouts; a member whose process dies abnormally counts toward
    ["portfolio.member_crash"] and contributes no verdict. *)
