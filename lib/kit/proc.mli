(** Process-level hard isolation for campaign tasks.

    {!Guard.run} contains failures {e cooperatively}: a task that stops
    calling {!Deadline.check} (a tight LP pivot loop, a pathological
    enumeration) hangs the whole campaign, and every task's allocations
    land on the heap shared by all domains. [Proc] closes that gap the
    way the paper's cluster runs do — one {e process} per task:

    - a small reusable worker pool (keyed by [HB_JOBS]) is preforked per
      {!run} call, so fork cost is amortised over all tasks;
    - tasks and results travel over pipes as length-prefixed,
      checksummed [Marshal] frames (tasks are sent as array indices, so
      nothing but plain data ever crosses the pipe);
    - a monitor in the parent enforces a {e wall-clock} watchdog —
      [SIGKILL] on deadline overrun — no cooperation required;
    - each worker installs a {e hard} memory cap via
      [setrlimit(RLIMIT_DATA/RLIMIT_AS)] before serving tasks, so one
      instance's allocations cannot touch a sibling (the {!Guard} soft
      alarm is also armed at the same budget, so most overruns are
      reported gracefully in-band);
    - worker death maps onto the {!Outcome} taxonomy: killed by the
      watchdog → [Timeout]; rlimit exhaustion or an OOM-kill →
      [Out_of_memory]; any other nonzero exit or torn frame → [Crash]
      carrying the worker's captured stderr tail.

    Fork safety: {!run} forks from the calling domain and drives all
    workers from a single-threaded [select] loop — no OCaml domains are
    involved. OCaml 5 refuses [Unix.fork] {e permanently} once the
    process has ever spawned a domain, so every isolated pass must
    complete before the first domain pool starts; the campaign runners
    order their phases accordingly (isolated analysis first, domain-pool
    ghd/fractional passes after), and a process gets one such window —
    run additional isolated campaigns in fresh processes.

    System {e threads} are fine, including several threads each driving
    their own concurrent {!run} (the serving daemon's per-request
    sandbox): pipe creation, fork and fd registration are serialised
    under one lock, every child first closes all registered parent-side
    fds (see {!register_fork_fd}), and the [SIGPIPE] disposition is
    reference-counted across overlapping runs. One caveat is inherent to
    forking a threaded process: a child can land on a C-level lock an
    unrelated thread held at fork time and deadlock before reaching its
    task — the wall-clock watchdog then reaps it as a [Timeout], so the
    failure mode is a (rare) spurious timeout, never a wedged host.

    Determinism: results are indexed like the input array; with a fuel
    budget inside the tasks, verdicts are identical at every [jobs]
    value — the watchdog only fires for tasks that would otherwise hang
    forever. *)

type 'b completion = {
  index : int;  (** position in the input task array *)
  attempts : int;
      (** dispatches actually consumed (0 for a task never started
          because {!run} halted early) *)
  outcome : 'b Outcome.t;
}

val register_fork_fd : Unix.file_descr -> unit
(** Record a parent-side fd that no forked worker may inherit open: a
    listening socket, an accepted connection, a log file. Every child
    closes all registered fds first thing after the fork, so a
    long-running sandboxed task cannot pin a socket the host has since
    closed. [run] registers its own pipe ends through the same table,
    which is what makes {e concurrent} [run] calls from several threads
    safe: without it, a child forked by one thread inherits another
    run's task-pipe write end and that run's worker never sees EOF at
    shutdown. Registration, fd creation and fork are serialised under
    one lock. Thread-safe. *)

val unregister_fork_fd : Unix.file_descr -> unit
(** Remove an fd from the registry — call just {e before} closing it
    (a registered-but-closed fd number could be recycled by an unrelated
    [open]). Unregistering an fd that was never registered is a no-op.
    Thread-safe. *)

val default_wall : float
(** 3600 s (the paper's per-run limit): the watchdog budget when
    [HB_WALL] ({!Config.wall}) is unset. *)

val run :
  ?jobs:int ->
  ?mem_mb:int ->
  ?retries:int ->
  ?halt_on:('b Outcome.t -> bool) ->
  ?on_done:('b completion -> unit) ->
  ?wall:(attempt:int -> float) ->
  (attempt:int -> 'a -> 'b) ->
  'a array ->
  'b completion array
(** [run f tasks] evaluates [f ~attempt tasks.(i)] for every [i] inside
    a forked worker process and returns one completion per task, in
    input order. Never raises on task failure: every way a worker can
    die becomes that task's [Outcome].

    - [jobs] (default {!Config.jobs}) bounds the worker pool; a
      worker is reused for many tasks and only respawned after a kill.
    - [mem_mb] (default {!Config.mem_mb}, the [HB_MEM_MB] knob) is
      the hard per-worker rlimit; [0] or absent disables it.
    - A non-[Ok] outcome is retried up to [retries] times (default 0),
      re-dispatched with [attempt + 1]; [wall ~attempt] supplies each
      attempt's watchdog budget (default: {!Config.wall}, else
      {!default_wall}, flat).
    - [halt_on] turns the run into a race: the first completed outcome
      it accepts kills every other busy worker with [SIGKILL] and
      records the casualties (and any never-dispatched task) as
      [Timeout] — this is the hard-kill path of
      {!Ghd.Portfolio.race_isolated}.
    - [on_done] is called in the parent, in completion order, exactly
      once per task — the journal hook.

    Results must contain only plain data (no closures, no custom
    blocks): they cross the pipe via [Marshal]. The task function and
    task array themselves never cross — workers inherit them by fork.

    Fault sites under isolation: {!Fault.hit} counters live in each
    worker's forked copy of the harness, so an [N]-th-hit clause fires
    per worker process, not globally across the pool. *)

val outcomes :
  ?jobs:int ->
  ?mem_mb:int ->
  ?wall:float ->
  ('a -> 'b) ->
  'a array ->
  'b Outcome.t array
(** {!run} without retries or races: just the outcome per task. *)
