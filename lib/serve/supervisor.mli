(** Self-healing supervision for [hyperbenchd] subsystems.

    Owns one {!Breaker} per named subsystem (the service layer uses
    ["solver"] and ["isolation"]) and the restart policy for
    crashed solve workers: a crashed {!Kit.Proc} worker is restarted —
    the next attempt forks a fresh sandbox — after a capped exponential
    backoff with deterministic seeded jitter, up to {!retries} times
    per request; every restart ticks the [serve.worker_restarts]
    counter and records one failure against the subsystem's breaker, so
    [N] consecutive crashes open it (see {!Breaker} for the
    open/half-open/closed cycle and what the daemon serves while open).

    Thread-safe; creating a supervisor registers its metrics so they
    appear in [/metrics] from boot. *)

type t

val create :
  ?now:(unit -> float) ->
  ?threshold:int ->
  ?cooldown:float ->
  ?max_cooldown:float ->
  ?retries:int ->
  ?backoff_base:float ->
  ?backoff_max:float ->
  ?seed:int ->
  unit ->
  t
(** Breaker parameters ([threshold] 5, [cooldown] 1 s doubling to
    [max_cooldown] 30 s) apply to every subsystem breaker; [retries]
    (default 2) bounds worker restarts per request; backoff delays grow
    from [backoff_base] (50 ms) to [backoff_max] (500 ms) with jitter
    derived from [seed]. [now] injects a clock for tests. *)

val breaker : t -> string -> Breaker.t
(** The subsystem's breaker, created on first use. *)

val subsystems : t -> (string * Breaker.state) list
(** Every subsystem seen so far with its current breaker state — the
    [/healthz] payload. *)

val retries : t -> int

val backoff : t -> attempt:int -> float
(** Restart delay before retry [attempt] (0-based): capped exponential
    with deterministic jitter. *)

val restarted : t -> unit
(** Tick [serve.worker_restarts]: a crashed worker is being replaced. *)
