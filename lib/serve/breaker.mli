(** A per-subsystem circuit breaker for the serving path.

    Closed (normal) until [threshold] {e consecutive} failures, then
    open: requests are rejected with an honest retry-after until the
    cooldown elapses. The first caller after the cooldown gets exactly
    one half-open {e probe}; a successful probe closes the breaker, a
    failed one re-opens it with the cooldown doubled (capped at
    [max_cooldown]) — capped exponential backoff across open cycles.

    Thread-safe (one mutex per breaker; every operation is a few loads
    under the lock). Transitions tick the
    [serve.breaker.<name>.opened/closed/rejected] counters in
    {!Kit.Metrics}, so open/close cycles are visible in [/metrics]. *)

type t

type state = Closed | Open | Half_open

val create :
  ?now:(unit -> float) ->
  ?threshold:int ->
  ?cooldown:float ->
  ?max_cooldown:float ->
  string ->
  t
(** [create name]: [threshold] consecutive failures (default 5) open the
    breaker for [cooldown] seconds (default 1.0), doubling per re-open up
    to [max_cooldown] (default 30.0). [now] injects a clock for tests. *)

val state : t -> state

val state_name : state -> string
(** ["closed"], ["open"] or ["half-open"] — the [/healthz] rendering. *)

val acquire : t -> [ `Proceed | `Probe | `Reject of float ]
(** Ask to run one request. [`Reject retry_after] while open (and while
    a half-open probe is already in flight); [`Probe] hands the single
    post-cooldown trial to this caller — report its outcome with
    {!success} or {!failure}. *)

val success : t -> unit
(** The subsystem worked: close (from any state) and reset the failure
    count and cooldown. *)

val failure : t -> unit
(** One more failure: opens the breaker from [Closed] at the threshold,
    re-opens with doubled cooldown from [Half_open]. *)

val retry_after : t -> float
(** Seconds until the next half-open probe is due — the honest
    [Retry-After] value for a degraded 503. [0.] when closed. *)
