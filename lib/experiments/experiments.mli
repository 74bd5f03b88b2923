(** Reproductions of every table and figure of the paper's evaluation
    (§5.6 and §6). Each function renders one artefact in the paper's shape
    from a shared analysis pass; [run_all] executes them in order.

    Absolute counts differ from the paper (our repository is a seeded,
    scaled rebuild of sources that are not redistributable; see DESIGN.md)
    — the comparisons recorded in EXPERIMENTS.md are about shape: which
    classes are cyclic, where hw sits, which algorithm wins where, and how
    rarely ghw improves on hw. *)

type context = {
  instances : Benchlib.Instance.t list;
  records : Benchlib.Analysis.record list;
  ghd : Benchlib.Analysis.ghd_record list;
  frac : Benchlib.Analysis.frac_record list;
  stats : Kit.Metrics.snapshot;
      (** global metrics snapshot taken when [prepare] finished — the
          accumulated search effort of the whole analysis pass
          ({!Kit.Metrics.empty} unless [Kit.Metrics.enabled] was set) *)
}

val prepare :
  ?seed:int ->
  ?scale:float ->
  ?budget_seconds:float ->
  ?budget:(unit -> Kit.Deadline.t) ->
  ?max_k:int ->
  ?jobs:int ->
  ?cache:Benchlib.Result_cache.t ->
  unit ->
  context
(** Build the repository and run the shared hw / ghw / fractional
    analyses. [cache] consults/feeds a content-addressed
    {!Benchlib.Result_cache} during the hw ladder. [budget_seconds] (default 1.0) is the per-run timeout — the
    scaled-down stand-in for the paper's 3600 s; [budget] overrides it
    with an arbitrary per-run deadline factory (e.g.
    [Kit.Deadline.of_fuel] for bit-reproducible runs). [jobs] (default
    {!Kit.Config.jobs}, i.e. the [HB_JOBS] knob) runs the
    per-instance loops on a domain pool. Results are collected in
    instance order, so verdicts and table contents do not depend on the
    pool interleaving; with a wall-clock budget, runs close to the
    timeout boundary remain timing-sensitive (between any two runs, at
    any [jobs]), while a fuel budget makes the tables identical at every
    [jobs] value. *)

val table1 : context -> string
(** Benchmark overview: instances and cyclic counts per source. *)

val table2 : context -> string
(** Deg / BIP / 3-BMIP / 4-BMIP / VC-dim histograms per group. *)

val figure3 : context -> string
(** Size distributions (vertices, edges, arity buckets) per group. *)

val figure4 : context -> string
(** hw analysis per group and level k: yes/no/timeout with average
    runtimes. *)

val figure5 : context -> string
(** Pairwise correlation matrix of the hypergraph metrics and hw. *)

val table3 : context -> string
(** GlobalBIP vs LocalBIP vs BalSep on Check(GHD, hw-1). *)

val table4 : context -> string
(** Combined (portfolio) ghw improvement results. *)

val table5 : context -> string
(** ImproveHD improvement buckets. *)

val table6 : context -> string
(** FracImproveHD improvement buckets. *)

val ablation :
  ?budget:(unit -> Kit.Deadline.t) -> ?budget_seconds:float -> context -> string
(** Design-choice ablations: DetKDecomp failure memoisation on/off and
    BalSep with/without the subedge fallback. [budget] overrides the
    wall-clock [budget_seconds] with an arbitrary deadline factory (pass a
    [Kit.Deadline.of_fuel] thunk to keep the whole bench deterministic). *)

val metrics_summary : Kit.Metrics.snapshot -> string
(** Render every non-zero metric of a snapshot together with the paper
    artefact it supports (the mapping is documented in EXPERIMENTS.md). *)

val solver_seconds : context -> float
(** Total solver time measured across the analysis (the sequential-
    equivalent cost); divide by the wall-clock time of {!prepare} to
    estimate the pool speedup. *)

val run_all : ?seed:int -> ?scale:float -> ?budget_seconds:float -> unit -> string

(** {1 Fault-tolerant campaigns} *)

module Journal : module type of Journal
(** The append-only JSONL journal backing checkpoint/resume. *)

type campaign = {
  context : context;  (** tables/figures render from this as usual *)
  tasks : Benchlib.Analysis.task list;
      (** one per repository instance, in instance order — resumed or
          freshly run, [Ok] or failed *)
  resumed : int;  (** instances skipped because the journal had them *)
  journal_corrupt : int;
      (** journal lines dropped on resume (torn tail, bad JSON, or
          entries that no longer decode) — their instances rerun *)
}

val escalating_budget :
  ?fuel:int ->
  float ->
  (unit -> Kit.Deadline.t) * (attempt:int -> unit -> Kit.Deadline.t)
(** [escalating_budget ?fuel seconds] is the [(budget, budget_for)] pair
    {!prepare_campaign} takes: a fuel budget of [fuel] steps when given,
    else a wall budget of [seconds]. Attempt [i] (retries) gets [2^i]
    times the base, so a too-tight budget can succeed on retry while a
    deterministic crash fails identically and is recorded. [budget ()]
    is attempt 0. *)

val prepare_campaign :
  ?seed:int ->
  ?scale:float ->
  ?budget_seconds:float ->
  ?budget:(unit -> Kit.Deadline.t) ->
  ?budget_for:(attempt:int -> unit -> Kit.Deadline.t) ->
  ?retries:int ->
  ?mem_mb:int ->
  ?max_k:int ->
  ?jobs:int ->
  ?isolate:bool ->
  ?wall:(attempt:int -> float) ->
  ?shard:int * int ->
  ?cache:Benchlib.Result_cache.t ->
  ?journal:string ->
  ?resume:bool ->
  unit ->
  (campaign, string) result
(** {!prepare}, hardened for long campaigns. Every instance runs inside
    {!Kit.Guard.run} (via {!Benchlib.Analysis.analyze_outcomes}): a
    crash, stack overflow, [HB_MEM_MB] trip or leaked timeout becomes
    that instance's recorded outcome and the campaign continues.
    [retries] / [budget_for] / [mem_mb] / [isolate] / [wall] are
    forwarded there; with [isolate] (default [HB_ISOLATE=1]) each
    instance runs in a forked worker under {!Kit.Proc}'s wall-clock
    watchdog and hard memory rlimit, and the journal hook runs in the
    monitor process — a hung or memory-hungry instance is hard-killed
    and journaled as [Timeout] / [Out_of_memory] without disturbing its
    siblings. The isolated pass completes before any domain pool starts
    (the ghd/fractional passes), keeping fork and domains apart.

    [journal] names a JSONL file that receives the header up front and
    one entry per instance the moment its outcome exists, so a killed
    process loses at most the in-flight instances. With [resume:true]
    and an existing journal, recorded instances are not rerun: their
    [Ok] records (including measured seconds) are rebuilt from the
    journal, so the final tables equal those of the uninterrupted run.
    A journal written under different [seed]/[scale]/[max_k] is
    rejected ([Error]), since mixing two campaigns would corrupt every
    aggregate; a journal with content whose line 1 does not parse has
    lost its run parameters and is likewise rejected; corrupt entry
    lines are skipped, counted, and their instances simply rerun.

    [shard (s, n)] restricts the run to instances whose index in the
    full repository list satisfies [index mod n = s] — a deterministic
    split (matching {!Benchlib.Repository.pack}), so [n] machines each
    running one shard into its own journal cover every instance exactly
    once; {!merge_journals} then rebuilds the unsharded journal. The
    header carries no shard field, keeping shard journals mutually
    header-compatible.

    [cache] consults/feeds a {!Benchlib.Result_cache} at every
    Check(HD,k) level (validated hits replace solves; definitive
    verdicts are stored; timeouts pass through uncached), so a repeated
    campaign under the same fuel budget produces identical tables while
    skipping the solves.

    The ghd/fractional passes run on the stitched record list each
    time — under a fuel budget their verdicts are deterministic, so
    resume reproduces them exactly. *)

val merge_journals : into:string -> string list -> (int * int, string) result
(** Merge the journals at [paths] — typically one per campaign shard —
    into a single journal at [into], atomically written. All inputs
    must have a parseable, mutually header-compatible line 1 (same
    refusal rules as resume). Entries are deduplicated by instance name
    (first occurrence wins) and reordered to repository instance order,
    so the output is deterministic in its inputs — shard journals merge
    to the same file no matter how each shard's completions interleaved.
    Resuming a campaign from the merged journal reruns nothing and
    renders tables identical (measured seconds aside) to the unsharded
    run's. Returns [Ok (entries, corrupt_lines_skipped)]. *)

val campaign_summary : campaign -> string
(** Deterministic one-screen digest: outcome counts, resume/retry
    counts, and one line per failed instance (label, attempts, first
    line of the crash detail). *)
