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

val run_result : jobs:int -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Exceptions raised by a task are captured per-task as [Error] without
    disturbing the other tasks or the pool. *)

val run : jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** Like {!run_result}, but re-raises the first (lowest-index) captured
    exception after all tasks have settled and every domain is joined. *)

val map_list : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!run} over lists. *)
