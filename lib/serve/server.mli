(** The [hyperbenchd] serving loop: a bounded admission queue over a
    fixed pool of system threads.

    Architecture — everything is {e threads}, never domains: the handler
    runs requests through {!Kit.Proc}, which forks, and OCaml 5 forbids
    [fork] once any domain has been spawned. The acceptor runs in the
    thread that calls {!serve}; [jobs] worker threads pop accepted
    connections from a bounded queue and speak HTTP on them. When the
    queue is full the acceptor answers 429 + [Retry-After] inline and
    closes — backpressure costs one write, never a worker. The
    [Retry-After] value is derived from the live queue depth and an
    EWMA of the observed drain rate (see {!retry_after_estimate}), not
    a constant.

    Drain: {!stop} only flips an atomic (it is installable directly as a
    [SIGTERM] handler). The acceptor notices within its 0.2 s [select]
    tick, closes the listener, and wakes all workers; workers finish the
    request in flight plus anything already queued or pipelined, answer
    each with [Connection: close], and exit. {!serve} then joins them and
    returns — no accepted request is dropped. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** [0] picks an ephemeral port — see {!port} *)
  jobs : int;  (** worker threads, default {!Kit.Proc.default_jobs} *)
  queue : int;  (** max connections awaiting a worker, default [HB_QUEUE] *)
  rate : float;  (** per-client req/s, [0.] = unlimited, default [HB_RATE] *)
  burst : float;  (** token-bucket burst, default [max rate 8] *)
  max_body : int;  (** request-body cap in bytes, default [HB_MAX_BODY] *)
  max_head : int;  (** request-head cap in bytes *)
  idle_timeout : float;  (** keep-alive idle close, seconds, default [HB_IDLE] *)
  drain_grace : float;  (** idle wait while draining, seconds, default [HB_DRAIN] *)
  mid_read_timeout : float;
      (** stall budget mid-request (slowloris guard), seconds, default
          [HB_READ_TIMEOUT] *)
  write_timeout : float;
      (** per-[write] send budget for responses, seconds, default
          [HB_WRITE_TIMEOUT] *)
}

val default_config : unit -> config
(** Defaults above, with [HB_PORT] / [HB_JOBS] / [HB_QUEUE] / [HB_RATE] /
    [HB_MAX_BODY] / [HB_IDLE] / [HB_DRAIN] / [HB_READ_TIMEOUT] /
    [HB_WRITE_TIMEOUT] read from the environment.
    @raise Invalid_argument on a malformed [HB_JOBS]. *)

val retry_after_estimate : queue_len:int -> rate:float -> int
(** Honest queue-full [Retry-After]: seconds until [queue_len + 1]
    requests drain at [rate] responses/second, clamped to [\[1, 60\]];
    [60] when the rate has collapsed to zero. Pure — exposed for
    tests. *)

type t

val create : config -> (Http.request -> Http.response) -> t
(** Bind and listen (raises [Unix.Unix_error] if the port is taken).
    The listener is registered with {!Kit.Proc.register_fork_fd} so
    sandboxed workers never inherit it. *)

val port : t -> int
(** The actual bound port (resolves [port = 0]). *)

val serve : t -> unit
(** Run the acceptor in the calling thread; returns after {!stop} once
    every in-flight and queued request has been answered and all worker
    threads have joined. *)

val stop : t -> unit
(** Begin graceful drain. Async-signal-safe: one atomic store, no locks,
    no allocation — install [fun _ -> stop t] as the SIGTERM handler. *)
