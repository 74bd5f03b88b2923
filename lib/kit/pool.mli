(** A fixed-size [Domain] work pool for embarrassingly parallel loops.

    [run ~jobs f tasks] evaluates [f] on every element of [tasks] using at
    most [jobs] domains (the calling domain participates, so [jobs = 4]
    spawns three) and returns the results in input order. Task
    granularity is expected to be coarse — one benchmark instance, one
    solver run — so scheduling is a single shared counter.

    Determinism: results depend only on [f] and the task order, never on
    the number of jobs or the interleaving; [jobs = 1] degrades to a plain
    sequential loop with no domains spawned.

    Ordering and containment guarantees, for every runner below:
    - results are indexed exactly like the input array, whatever order
      tasks actually complete in;
    - every task is attempted exactly once, even when a sibling task
      fails — a per-task failure is recorded in that task's slot and
      disturbs nothing else;
    - every spawned domain is joined before the call returns, on all
      paths. If [Domain.spawn] itself fails partway (the runtime caps
      live domains, or the OS refuses a thread), the pool degrades to
      the workers that did spawn — the remaining tasks run there and on
      the calling domain — and counts the event in the
      ["pool.spawn_failures"] metric instead of leaking unjoined
      domains. *)

val default_jobs : unit -> int
(** {!Proc.default_jobs}: the [HB_JOBS] knob, or
    [Domain.recommended_domain_count ()] when unset.
    @raise Invalid_argument on a malformed value. *)

val run_result : jobs:int -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Exceptions raised by a task are captured per-task as [Error] without
    disturbing the other tasks or the pool. *)

val run_outcome :
  ?mem_mb:int ->
  ?isolate:bool ->
  ?wall:float ->
  jobs:int ->
  ('a -> 'b) ->
  'a array ->
  'b Outcome.t array
(** Like {!run_result}, but each task runs inside {!Guard.run}: leaked
    timeouts, allocation failure (real or [HB_MEM_MB]-budgeted), stack
    overflow and crashes come back as structured {!Outcome.t} values.
    This is the campaign-grade runner: no task outcome can kill a domain
    or the pool.

    With [isolate] (default: {!Proc.enabled}, i.e. [HB_ISOLATE=1]) the
    tasks run in forked worker processes via {!Proc.outcomes} instead of
    domains: same ordering and containment guarantees, plus a hard
    [wall]-second watchdog and a hard memory rlimit — tasks must then
    return only plain marshallable data. *)

val run : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!run_result}, but re-raises the first (lowest-index) captured
    exception after all tasks have settled and every domain is joined. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!run} over lists. *)
