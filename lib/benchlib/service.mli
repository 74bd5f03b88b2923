(** The [hyperbenchd] request handler: decomposition as a service.

    Glue between {!Serve} (the wire) and the solver stack: parses the
    posted hypergraph (HG text, packed binary, SQL or XCSP3, selected by
    [Content-Type]), answers Check(HD/GHD,k) or a full hypertree-width
    ladder, consults {!Result_cache} by fingerprint before solving (HD
    only — GHD witnesses cannot be replayed through the HD checker), and
    renders verdict + width + decomposition as JSON.

    Each solve runs under the per-request budget: with [isolate] it goes
    through {!Kit.Proc} ([jobs:1] — a forked worker with a wall-clock
    watchdog and hard memory rlimit), otherwise in-process under
    {!Kit.Guard.run} with the soft memory alarm {e disabled} (the alarm
    is process-global; in a threaded daemon it would blame whichever
    request happens to allocate next). Cache lookups and stores happen
    {e inside} the solving process, so hits skip the solver in both
    modes; the worker ships its metric delta back with the result.

    Response bodies are deterministic — timing lives in the
    [X-HB-Seconds] header, and [X-HB-Cache: hit|miss|off] reports cache
    participation — so a cache hit is byte-identical to the original
    response.

    {2 Self-healing}

    Every solve is charged to a subsystem breaker ([isolation] when
    forking, [solver] in-process) owned by [supervisor]. A crashed
    worker is restarted with jittered backoff up to the supervisor's
    retry budget (each restart ticks [serve.worker_restarts]); a crash
    that survives the restarts answers 503 with the breaker's honest
    [Retry-After]. While a breaker is open, [POST /decompose] degrades
    instead of failing: a request whose fingerprint has a cached
    definitive verdict is answered 200 from cache (byte-identical body,
    [X-HB-Degraded: cache]), anything else gets 503 + [Retry-After]
    from the half-open probe schedule. Worker-kill chaos is injected at
    the [serve.worker] {!Kit.Fault} site, decided in the daemon so the
    firing sequence stays deterministic under isolation.

    Clients advertise their remaining budget in [X-HB-Deadline]
    (seconds, set by {!Serve.Client.request_retry}): an expired
    deadline is answered 504 without solving, otherwise it caps the
    solve's time budget. *)

type config = {
  cache : Result_cache.t option;
  isolate : bool;  (** fork per request via {!Kit.Proc} *)
  mem_mb : int option;  (** hard rlimit per isolated request *)
  default_timeout : float;  (** seconds, when the request names none *)
  max_timeout : float;  (** ceiling on client-requested budgets *)
  max_k : int;  (** ladder ceiling when no [k] is given *)
  supervisor : Serve.Supervisor.t;
      (** breakers + worker restart policy — see {!Serve.Supervisor} *)
}

val default_config : unit -> config
(** [cache] from [HB_CACHE], [isolate] off ([hyperbench serve
    --isolate] turns it on), [mem_mb] from [HB_MEM_MB], timeouts 10 s
    default / 60 s max, [max_k] 8, a fresh default [supervisor]. *)

val rejection : format:string -> source:string -> Kit.Diag.t list -> Kit.Json.t
(** The 422 body for an unparseable payload of [format]
    (["hg"|"hbx"|"sql"|"xcsp"]): the diagnostics as JSON positions plus
    the rendered caret report. *)

val handler : config -> Serve.Http.request -> Serve.Http.response
(** Routes:
    - [GET /] — usage document;
    - [GET /healthz] — liveness plus per-subsystem breaker state,
      [200 {"ok":bool,"subsystems":{...}}] ([ok] false while any
      breaker is open — the daemon itself is alive either way);
    - [GET /metrics] — Prometheus text rendering of {!Kit.Metrics};
    - [POST /decompose?k=..&method=..&timeout=..&fuel=..] — solve.

    [method] is one of [hd] (default), [balsep], [localbip],
    [globalbip], [portfolio]; all but [hd] require [k]. Without [k],
    [hd] runs the width ladder [k = 1..max_k]. [fuel] switches to the
    deterministic fuel budget (tests). Errors: 400 bad parameters, 404 /
    405 routing, 415 unknown content type, 422 unparseable payload, 500
    solver stack overflow, 503 + [Retry-After] out of memory / crash
    beyond the restart budget / breaker open on a cache miss, 504
    expired [X-HB-Deadline]. *)
