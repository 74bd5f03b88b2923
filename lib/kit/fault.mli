(** Deterministic fault injection for resilience testing.

    A fault specification arms named {e sites} — places in the code that
    call {!hit} (or {!cut}) — to fail on demand: raise an arbitrary
    exception, simulate allocation failure, kill a portfolio member, or
    truncate a parser's input. Tests (and the CI fault leg) use it to
    prove that one poisoned task cannot take down a campaign; see
    {!Guard.run} for the containment side.

    The harness is armed either programmatically ({!configure}) or from
    the [HB_FAULT] environment variable by {!Config.check} at start-up. When no
    spec is armed, {!hit} is one atomic load and a branch, so permanent
    instrumentation of hot paths (e.g. {!Deadline.check}) is free.

    {2 Specification syntax}

    A spec is a semicolon-separated list of clauses

    {v kind@site:trigger v}

    where [kind] is [crash], [oom], [kill], [truncate], [hang], or one
    of the network kinds [stall], [reset], [torn]; [site] is the
    site name (e.g. [deadline.poll], [instance.cq-rand-003],
    [portfolio.balsep], [hypergraph.parse], [serve.read], [serve.write],
    [client.read], [client.write], [serve.worker]); and [trigger] is

    - [N] — fire exactly once, at the Nth hit of the site (1-based,
      counted globally across domains with an atomic counter);
    - [pF:sS] — fire independently at each hit with probability [F],
      derived deterministically from seed [S] and the hit number (so a
      given seed faults the same hit numbers on every run);
    - for [truncate]: [NxB] — at the Nth hit, let the caller keep only
      the first [B] bytes of its input.

    Examples: [crash@deadline.poll:120],
    [oom@instance.cq-rand-003:1], [kill@portfolio.balsep:p0.5:s7],
    [truncate@hypergraph.parse:3x40], [hang@instance.cq-rand-003:1].

    [hang] busy-loops forever {e without} ever calling
    {!Deadline.check} — it simulates a search that stops cooperating, so
    it escapes {!Guard.run} and every soft budget. Only the hard
    wall-clock watchdog of {!Proc} (campaigns under [HB_ISOLATE=1] /
    [--isolate]) terminates it; do not arm it in an un-isolated run you
    are not prepared to kill.

    {2 Network kinds}

    [stall], [reset] and [torn] are {e acted out} by the wire layer
    rather than raised: a socket read/write path calls {!net} and, when
    a clause fires, simulates the hostile peer itself — [stall] blocks
    until the path's own timeout budget expires, [reset] behaves as an
    abrupt connection reset, [torn] delivers a partial write and then
    closes the socket for real (the peer observes a torn response).
    Sites: [serve.read] / [serve.write] in the daemon's
    {!Serve.Http} layer, [client.read] / [client.write] in
    {!Serve.Client}. Example:
    [stall@serve.read:p0.1:s7;torn@serve.write:3]. *)

type kind = Crash | Oom | Kill | Truncate | Hang | Stall | Reset | Torn

exception Injected of string
(** Raised by {!hit} at an armed [crash] or [kill] site; the payload
    names the kind, site and hit number. [oom] raises
    [Stdlib.Out_of_memory] instead, so allocation-failure handling is
    exercised for real. *)

val validate : string -> (unit, string) result
(** Parse a spec without arming anything; [Error] names the bad clause. *)

val configure : string -> (unit, string) result
(** Replace the armed spec. [Error] (leaving the harness disarmed)
    on a malformed spec. [configure ""] disarms. *)

val clear : unit -> unit
(** Disarm every site and forget all hit counters. *)

val armed : unit -> bool
(** Cheap: a single atomic load. *)

val hit : string -> unit
(** Count one hit of [site]; raise if an armed clause fires. No-op when
    disarmed. *)

val cut : string -> int option
(** Count one hit of a [truncate] site; [Some bytes] when this hit
    fires, telling the caller to keep only a prefix of its input. *)

val net : string -> kind option
(** Count one hit of a network site; [Some (Stall | Reset | Torn)] when
    an armed network clause fires there, telling the wire layer which
    hostile-peer behaviour to act out. Never raises; one atomic load
    when disarmed. Non-network kinds at the site are ignored (they
    belong to {!hit}), and vice versa. *)
