(** Experiment runners: the measured side of every table and figure.

    [analyze] performs the paper's Figure-4 protocol on each instance:
    solve Check(HD,k) for k = 1, 2, ... with a fresh budget per run,
    continuing past "no" and "timeout" answers until the first "yes" (or
    the cap). It also computes the structural profile of Table 2. The
    other runners consume those records. *)

type verdict = [ `Yes | `No | `Timeout ]

type hw_run = { k : int; outcome : verdict; seconds : float }

type hw_status =
  | Exact of int  (** hw known exactly: yes at k, no at every k' < k *)
  | Upper of int  (** yes at k, but some smaller k timed out *)
  | Open_above of int  (** no yes up to this k (cap or timeouts) *)

type record = {
  instance : Instance.t;
  profile : Hg.Properties.profile;
  hw_runs : hw_run list;
  hw : hw_status;
  hd : Decomp.t option;  (** witness for Exact/Upper *)
  stats : Kit.Metrics.snapshot;
      (** this instance's search-effort delta ({!Kit.Metrics.local_delta}
          around the k-ladder); {!Kit.Metrics.empty} unless metrics were
          enabled *)
}

val analyze :
  ?budget:(unit -> Kit.Deadline.t) ->
  ?max_k:int ->
  ?jobs:int ->
  ?cache:Result_cache.t ->
  Instance.t list ->
  record list
(** [budget] supplies the per-run deadline (default: 1 s wall clock, the
    scaled-down counterpart of the paper's 3600 s); it must produce a
    fresh deadline per call and be callable from any domain. [max_k]
    defaults to 8. [jobs] (default {!Kit.Config.jobs}) sets the
    domain-pool width; results are in instance order and — for
    deterministic budgets such as [Kit.Deadline.of_fuel] — identical at
    every [jobs] value. [cache] consults/feeds a {!Result_cache} at each
    k level: validated hits replace the solve, definitive verdicts are
    stored, timeouts are neither served nor stored, so cached and
    uncached runs produce the same verdicts. *)

val hw_bound : record -> int option
(** The k with a yes answer (Exact or Upper), if any. *)

type task = {
  task_instance : Instance.t;
  attempts : int;  (** 1 + retries actually used *)
  result : record Kit.Outcome.t;
}
(** One instance's guarded campaign outcome. *)

val analyze_outcomes :
  ?budget:(unit -> Kit.Deadline.t) ->
  ?budget_for:(attempt:int -> unit -> Kit.Deadline.t) ->
  ?retries:int ->
  ?mem_mb:int ->
  ?max_k:int ->
  ?jobs:int ->
  ?isolate:bool ->
  ?wall:(attempt:int -> float) ->
  ?cache:Result_cache.t ->
  ?on_done:(task -> unit) ->
  Instance.t list ->
  task list
(** Campaign-grade {!analyze}: each instance runs inside
    {!Kit.Guard.run}, so a crash, leaked timeout, stack overflow or
    (soft) allocation failure on one instance becomes that instance's
    recorded outcome instead of destroying the run. Guarantees, in
    addition to {!analyze}'s ordering/determinism:

    - a non-[Ok] outcome is retried up to [retries] times (default: the
      [HB_RETRIES] environment knob, else 0), each attempt drawing its
      deadlines from [budget_for ~attempt] — pass an escalating factory
      (e.g. doubling fuel per attempt) to give hard instances more
      budget on retry; the default reuses [budget] unchanged;
    - [mem_mb] (default [HB_MEM_MB]) arms {!Kit.Guard}'s soft memory
      budget for each attempt;
    - [on_done] is called exactly once per instance, on the worker
      domain that finished it and in completion order — this is the
      journal append hook, invoked as soon as the outcome exists so a
      later kill loses at most the in-flight instances;
    - the fault-injection site ["instance.<name>"] is hit at the start
      of every attempt, so tests can fail a chosen instance
      deterministically at any [jobs] value (and observe a retry
      succeed, since the site counter advances per attempt);
    - with [isolate] (default: {!Kit.Config.isolate}, i.e. [HB_ISOLATE=1])
      each attempt runs in a forked worker under {!Kit.Proc}: the soft
      guard is backed by a hard [SIGKILL] watchdog of [wall ~attempt]
      seconds (default [HB_WALL], else 3600) and a hard memory rlimit at
      the same [mem_mb] budget, so even a search that never polls its
      deadline — or an allocation storm — is contained to its own
      process and journaled as [Timeout] / [Out_of_memory]. [on_done]
      then runs in the parent (monitor) process, still exactly once per
      instance in completion order. Caveat: under isolation the
      ["instance.<name>"] fault counters live per worker process. *)

type ghd_run = {
  algorithm : Ghd.Portfolio.algorithm;
  outcome : verdict;
  seconds : float;
}

type ghd_record = {
  name : string;
  from_k : int;  (** the instance's hw (yes-level) *)
  target_k : int;  (** from_k - 1 *)
  runs : ghd_run list;  (** one per algorithm *)
  combined : verdict;  (** first definitive answer across algorithms *)
  combined_seconds : float;  (** time of the fastest deciding algorithm *)
  stats : Kit.Metrics.snapshot;
      (** search-effort delta over the three algorithm runs;
          {!Kit.Metrics.empty} unless metrics were enabled *)
}

val ghd_comparison :
  ?budget:(unit -> Kit.Deadline.t) ->
  ?ks:int list ->
  ?jobs:int ->
  record list ->
  ghd_record list
(** Table 3/4 protocol: for every instance whose hw (yes-level) k is in
    [ks] (default [3;4;5;6]), run all three GHD algorithms on
    Check(GHD, k-1). *)

type frac_record = {
  name : string;
  hw : int;
  improve_width : float;  (** ImproveHD width (from the stored HD) *)
  frac_improve_width : float option;
      (** FracImproveHD best width; [None] = timed out before any result *)
}

val fractional :
  ?budget:(unit -> Kit.Deadline.t) ->
  ?step:float ->
  ?jobs:int ->
  record list ->
  frac_record list
(** Tables 5 and 6: for every record with an HD witness, the ImproveHD
    width and the best FracImproveHD width. *)
