(** Crash containment for one campaign task.

    [run f] evaluates [f ()] inside a containment boundary and reports
    what happened as a {!Outcome.t} instead of letting anything escape:

    - a {!Deadline.Timed_out} that leaked past the solver becomes
      [Timeout];
    - [Stdlib.Out_of_memory] — from the real allocator or from the soft
      memory budget below — becomes [Out_of_memory], and the major heap
      is compacted before returning so the next task starts from a sane
      footprint;
    - [Stdlib.Stack_overflow] becomes [Stack_overflow]: the guard frame
      is the trampoline the unwind lands on, keeping the hosting domain
      alive (OCaml 5 raises rather than aborts when a fiber stack cannot
      grow);
    - every other exception becomes [Crash] carrying
      [Printexc.to_string] plus the backtrace when recording is on.

    {2 Soft memory budget}

    With a budget of [m] MB (the [mem_mb] argument, defaulting to
    {!Config.mem_mb}, the [HB_MEM_MB] knob), a [Gc] alarm installed for the
    duration of the call raises [Out_of_memory] at the end of any major
    collection whose live heap exceeds the budget. This is a soft,
    per-process guardrail: it triggers on major-cycle boundaries, not on
    the allocation that crossed the line, and the heap counted is shared
    by all domains — size it for the whole campaign process, not per
    task. It turns the paper's "instance ate the machine" failure mode
    into one recorded [Out_of_memory] outcome. *)

val run : ?mem_mb:int -> (unit -> 'a) -> 'a Outcome.t
(** Containment boundary; never raises. [mem_mb] overrides [HB_MEM_MB];
    [0] disables the budget even when the environment sets one. *)
