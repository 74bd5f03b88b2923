type config = {
  host : string;
  port : int;
  jobs : int;
  queue : int;
  rate : float;
  burst : float;
  max_body : int;
  max_head : int;
  idle_timeout : float;
  drain_grace : float;
  mid_read_timeout : float;
  write_timeout : float;
}

let default_config () =
  {
    host = "127.0.0.1";
    port = 8080;
    jobs = Kit.Config.jobs ();
    queue = 64;
    rate = 0.;
    burst = 8.;
    max_body = 8 * 1024 * 1024;
    max_head = 16 * 1024;
    idle_timeout = Kit.Config.idle ();
    drain_grace = Kit.Config.drain ();
    mid_read_timeout = Kit.Config.read_timeout ();
    write_timeout = Kit.Config.write_timeout ();
  }

(* Metrics: registered once at module init; recording is a no-op unless
   [Kit.Metrics.enabled]. *)
let m_connections = Kit.Metrics.counter "serve.connections"
let m_requests = Kit.Metrics.counter "serve.requests"
let m_responses = Kit.Metrics.counter "serve.responses"
let m_http_400 = Kit.Metrics.counter "serve.http_400"
let m_http_413 = Kit.Metrics.counter "serve.http_413"
let m_http_5xx = Kit.Metrics.counter "serve.http_5xx"
let m_rej_queue = Kit.Metrics.counter "serve.rejected_queue"
let m_rej_rate = Kit.Metrics.counter "serve.rejected_rate"

let m_latency =
  Kit.Metrics.histogram "serve.latency_ms"
    ~buckets:[| 1; 5; 10; 50; 100; 500; 1000; 5000; 30000 |]

type t = {
  cfg : config;
  handler : Http.request -> Http.response;
  lfd : Unix.file_descr;
  bound_port : int;
  stopping : bool Atomic.t;
  qm : Mutex.t;
  qc : Condition.t;
  q : (Unix.file_descr * string) Queue.t;
  limiter : Rate_limit.t;
  completed : int Atomic.t;  (* responses written — feeds the drain-rate
                                estimate behind queue-full Retry-After *)
}

(* A peer that closes mid-response must surface as EPIPE from write, not
   kill the daemon. Idempotent; shared with Client for test processes. *)
let ignore_sigpipe =
  lazy (Sys.set_signal Sys.sigpipe Sys.Signal_ignore)

let create cfg handler =
  Lazy.force ignore_sigpipe;
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt lfd Unix.SO_REUSEADDR true;
     let addr = Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port) in
     Unix.bind lfd addr;
     Unix.listen lfd 128
   with e ->
     (try Unix.close lfd with Unix.Unix_error _ -> ());
     raise e);
  Kit.Proc.register_fork_fd lfd;
  let bound_port =
    match Unix.getsockname lfd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> cfg.port
  in
  {
    cfg;
    handler;
    lfd;
    bound_port;
    stopping = Atomic.make false;
    qm = Mutex.create ();
    qc = Condition.create ();
    q = Queue.create ();
    limiter = Rate_limit.create ~rate:cfg.rate ~burst:cfg.burst;
    completed = Atomic.make 0;
  }

let port t = t.bound_port
let stop t = Atomic.set t.stopping true

let close_conn fd =
  Kit.Proc.unregister_fork_fd fd;
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* One HTTP connection, start to close. Runs in a worker thread. *)
let serve_connection t fd who =
  let conn =
    Http.conn ~client:who ~mid_read_timeout:t.cfg.mid_read_timeout
      ~write_timeout:t.cfg.write_timeout
      ~abort:(fun () -> Atomic.get t.stopping)
      ~grace:t.cfg.drain_grace fd
  in
  (* Every answered request counts toward the drain rate, whether or not
     the peer was still there to read it. *)
  let write_response conn ~keep_alive r =
    let ok = Http.write_response conn ~keep_alive r in
    Atomic.incr t.completed;
    ok
  in
  let rec loop () =
    let draining = Atomic.get t.stopping in
    let idle = if draining then t.cfg.drain_grace else t.cfg.idle_timeout in
    match
      Http.read_request ~idle ~max_head:t.cfg.max_head
        ~max_body:t.cfg.max_body conn
    with
    | Error (Http.Eof | Http.Idle_timeout) -> ()
    | Error Http.Mid_timeout ->
        ignore
          (write_response conn ~keep_alive:false
             (Http.response 408 (Http.error_body 408 "request timed out")))
    | Error (Http.Bad msg) ->
        Kit.Metrics.incr m_http_400;
        ignore
          (write_response conn ~keep_alive:false
             (Http.response 400 (Http.error_body 400 msg)))
    | Error Http.Head_too_large ->
        Kit.Metrics.incr m_http_400;
        ignore
          (write_response conn ~keep_alive:false
             (Http.response 431 (Http.error_body 431 "request head too large")))
    | Error Http.Body_too_large ->
        Kit.Metrics.incr m_http_413;
        ignore
          (write_response conn ~keep_alive:false
             (Http.response 413
                (Http.error_body 413
                   (Printf.sprintf "request body exceeds %d bytes"
                      t.cfg.max_body))))
    | Ok req -> (
        Kit.Metrics.incr m_requests;
        match Rate_limit.admit t.limiter req.Http.client with
        | Error retry_after ->
            Kit.Metrics.incr m_rej_rate;
            let keep_alive =
              Http.keep_alive_requested req && not (Atomic.get t.stopping)
            in
            let ok =
              write_response conn ~keep_alive
                (Http.response
                   ~headers:
                     [ ("Retry-After",
                        string_of_int
                          (int_of_float (Float.ceil retry_after))) ]
                   429
                   (Http.error_body 429 "rate limit exceeded"))
            in
            if ok && keep_alive then loop ()
        | Ok () ->
            let t0 = Unix.gettimeofday () in
            let resp =
              try t.handler req
              with e ->
                Kit.Metrics.incr m_http_5xx;
                Http.response 500
                  (Http.error_body 500
                     ("internal error: " ^ Printexc.to_string e))
            in
            Kit.Metrics.observe m_latency
              (int_of_float ((Unix.gettimeofday () -. t0) *. 1000.));
            Kit.Metrics.incr m_responses;
            let draining = Atomic.get t.stopping in
            let keep_alive = Http.keep_alive_requested req && not draining in
            let ok = write_response conn ~keep_alive resp in
            (* While draining, still answer requests the peer already
               pipelined into our buffer — they were accepted. *)
            if ok && (keep_alive || (draining && Http.buffered conn)) then
              loop ())
  in
  loop ()

let worker t () =
  let rec next () =
    Mutex.lock t.qm;
    while Queue.is_empty t.q && not (Atomic.get t.stopping) do
      Condition.wait t.qc t.qm
    done;
    let job = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Mutex.unlock t.qm;
    match job with
    | None -> ()  (* stopping and drained *)
    | Some (fd, who) ->
        Fun.protect
          ~finally:(fun () -> close_conn fd)
          (fun () ->
            try serve_connection t fd who
            with _ -> () (* connection errors never kill a worker *));
        next ()
  in
  next ()

(* Honest queue-full Retry-After: how long until [queue_len + 1] requests
   drain at the observed completion rate (responses/second), clamped to
   [1, 60]. A rate that has collapsed to zero means the server is wedged
   and 60 is the honest answer. *)
let retry_after_estimate ~queue_len ~rate =
  if rate <= 0. then 60
  else
    max 1 (min 60 (int_of_float (Float.ceil (float_of_int (queue_len + 1) /. rate))))

let reject_queue_full fd ~retry_after =
  Kit.Metrics.incr m_rej_queue;
  let body = Http.error_body 429 "server busy, admission queue full" in
  let head =
    Printf.sprintf
      "HTTP/1.1 429 Too Many Requests\r\n\
       Server: hyperbenchd\r\n\
       Content-Type: application/json\r\n\
       Retry-After: %d\r\n\
       Content-Length: %d\r\n\
       Connection: close\r\n\
       \r\n"
      retry_after (String.length body)
  in
  (* Best effort, and never block the acceptor on a slow peer. *)
  try
    Unix.set_nonblock fd;
    ignore
      (Unix.write_substring fd (head ^ body) 0
         (String.length head + String.length body))
  with Unix.Unix_error _ -> ()

let string_of_sockaddr = function
  | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
  | Unix.ADDR_UNIX p -> p

let serve t =
  let workers =
    List.init (max 1 t.cfg.jobs) (fun _ -> Thread.create (worker t) ())
  in
  (* Drain-rate EWMA (responses/second), sampled from [t.completed] on
     >=0.5 s ticks of the accept loop. Seeded optimistically at one
     request per worker-second so a cold server doesn't claim to be
     wedged. *)
  let ewma = ref (float_of_int (max 1 t.cfg.jobs)) in
  let last_sample = ref (Unix.gettimeofday ()) in
  let last_completed = ref (Atomic.get t.completed) in
  let sample_rate () =
    let now = Unix.gettimeofday () in
    let dt = now -. !last_sample in
    if dt >= 0.5 then begin
      let done_ = Atomic.get t.completed in
      let inst = float_of_int (done_ - !last_completed) /. dt in
      ewma := (0.7 *. !ewma) +. (0.3 *. inst);
      last_sample := now;
      last_completed := done_
    end
  in
  let rec accept_loop () =
    if Atomic.get t.stopping then ()
    else begin
      sample_rate ();
      (match Unix.select [ t.lfd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept ~cloexec:true t.lfd with
          | exception Unix.Unix_error _ -> ()
          | fd, peer ->
              Kit.Proc.register_fork_fd fd;
              Kit.Metrics.incr m_connections;
              let who = string_of_sockaddr peer in
              Mutex.lock t.qm;
              let queue_len = Queue.length t.q in
              let full = queue_len >= max 1 t.cfg.queue in
              if not full then begin
                Queue.push (fd, who) t.q;
                Condition.signal t.qc
              end;
              Mutex.unlock t.qm;
              if full then begin
                reject_queue_full fd
                  ~retry_after:(retry_after_estimate ~queue_len ~rate:!ewma);
                close_conn fd
              end)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain: close the listener, wake every worker, join them. *)
  Kit.Proc.unregister_fork_fd t.lfd;
  (try Unix.close t.lfd with Unix.Unix_error _ -> ());
  Mutex.lock t.qm;
  Condition.broadcast t.qc;
  Mutex.unlock t.qm;
  List.iter Thread.join workers
