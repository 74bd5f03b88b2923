type config = {
  cache : Result_cache.t option;
  isolate : bool;
  mem_mb : int option;
  default_timeout : float;
  max_timeout : float;
  max_k : int;
  supervisor : Serve.Supervisor.t;
}

let default_config () =
  {
    cache = Result_cache.of_env ();
    isolate = false;
    mem_mb = Kit.Config.mem_mb ();
    default_timeout = 10.0;
    max_timeout = 60.0;
    max_k = 8;
    supervisor = Serve.Supervisor.create ();
  }

(* ------------------------------------------------------------------ *)
(* Payload parsing                                                     *)
(* ------------------------------------------------------------------ *)

let media_type (req : Serve.Http.request) =
  match Serve.Http.header req "content-type" with
  | None -> "application/x-hyperbench"
  | Some v -> (
      match String.index_opt v ';' with
      | Some i -> String.lowercase_ascii (String.trim (String.sub v 0 i))
      | None -> String.lowercase_ascii (String.trim v))

(* A parse failure keeps the structured diagnostics so the 422 body can
   carry machine-readable positions alongside the rendered report; only
   unknown media types stay a plain 415. *)
type payload_error =
  | Unsupported of string
  | Invalid of { format : string; source : string; diags : Kit.Diag.t list }

let parse_payload (req : Serve.Http.request) =
  let body = req.Serve.Http.body in
  let invalid format diags =
    Error (Invalid { format; source = body; diags })
  in
  match media_type req with
  | "text/plain" | "application/x-hyperbench" -> (
      match Hg.Hypergraph.parse_report body with
      | Ok h -> Ok h
      | Error ds -> invalid "hg" ds)
  | "application/x-hyperbench-binary" | "application/octet-stream" -> (
      match Hg.Binary.of_string_report body with
      | Ok h -> Ok h
      | Error d -> invalid "hbx" [ d ])
  | "application/sql" | "text/x-sql" -> (
      match Sql.Convert.sql_to_hypergraphs_report body with
      | Error ds -> invalid "sql" ds
      | Ok convs -> (
          match
            List.find_map
              (fun (_, c) -> c.Sql.Convert.hypergraph)
              convs
          with
          | Some h -> Ok h
          | None ->
              invalid "sql"
                [
                  Kit.Diag.error (Kit.Diag.point 0)
                    "SQL contained no convertible query";
                ]))
  | "application/xml" | "text/xml" | "application/x-xcsp" -> (
      match Xcsp3.Xcsp.read_report body with
      | Ok h -> Ok h
      | Error ds -> invalid "xcsp" ds)
  | mt -> Error (Unsupported mt)

(* ------------------------------------------------------------------ *)
(* Solving                                                             *)
(* ------------------------------------------------------------------ *)

(* What a solve produces — plain data only, it crosses a [Proc] pipe via
   Marshal when isolation is on. *)
type solved = {
  s_verdict : string;  (* "yes" | "no" | "timeout" *)
  s_k : int;  (* the level the verdict is about, -1 when unknown *)
  s_width : int;  (* witness width, -1 when none *)
  s_decomp : string;  (* Decomp_io.to_text witness, "" when none *)
  s_algorithm : string;  (* deciding algorithm *)
  s_cache : string;  (* "off" | "hit" | "miss" — every level was a hit *)
  s_stats : Kit.Metrics.snapshot;
}

type budget = Seconds of float | Fuel of int

let fresh_deadline = function
  | Seconds s -> Kit.Deadline.of_seconds s
  | Fuel f -> Kit.Deadline.of_fuel f

let yes h d ~k ~alg =
  {
    s_verdict = "yes";
    s_k = k;
    s_width = Decomp.width d;
    s_decomp = Decomp_io.to_text h d;
    s_algorithm = alg;
    s_cache = "off";
    s_stats = Kit.Metrics.empty;
  }

let no ~k ~alg =
  { s_verdict = "no"; s_k = k; s_width = -1; s_decomp = "";
    s_algorithm = alg; s_cache = "off"; s_stats = Kit.Metrics.empty }

let timeout ~k ~alg =
  { s_verdict = "timeout"; s_k = k; s_width = -1; s_decomp = "";
    s_algorithm = alg; s_cache = "off"; s_stats = Kit.Metrics.empty }

let ghd_answer { Ghd.Global_bip.outcome; exact } ~k ~alg h =
  match outcome with
  | Detk.Decomposition d -> yes h d ~k ~alg
  | Detk.No_decomposition ->
      (* An inexact "no" (truncated subedge set) proves nothing. *)
      if exact then no ~k ~alg else timeout ~k ~alg
  | Detk.Timeout -> timeout ~k ~alg

(* Check(HD,k) at the asked [k] or, without one, the width ladder
   k = 1..max_k, whose first level that is not "no" decides. [step lvl]
   answers one level, or [None] when it cannot (a miss on the cache-only
   path), and then so does the whole answer. *)
let hd_ladder h ~max_k ~k step =
  let answer lvl = function
    | Detk.Decomposition d -> yes h d ~k:lvl ~alg:"hd"
    | Detk.No_decomposition -> no ~k:lvl ~alg:"hd"
    | Detk.Timeout -> timeout ~k:lvl ~alg:"hd"
  in
  let rec go lvl =
    if lvl > max_k then Some (no ~k:max_k ~alg:"hd")
    else
      match step lvl with
      | Some Detk.No_decomposition -> go (lvl + 1)
      | o -> Option.map (answer lvl) o
  in
  match k with Some k -> Option.map (answer k) (step k) | None -> go 1

(* Runs in the solving process (in-process or forked child). A forked
   child wraps the whole solve in [local_delta] so cache hits/misses and
   search counters recorded there travel back to the daemon with the
   result; in-process they are already in the daemon's store. *)
let solve_once ~cfg ~meth ~k ~budget key () =
  let h = Result_cache.hypergraph key in
  let missed = ref false in
  let recorded f =
    if cfg.isolate then Kit.Metrics.local_delta f
    else (f (), Kit.Metrics.empty)
  in
  let r, delta =
    recorded (fun () ->
        match (meth, k) with
        | "hd", _ ->
            (* One budget and one sweep table for every level (failure
               proofs accumulate across levels). Only "hd" is
               cache-eligible: GHD witnesses would fail the HD replay
               check on every hit and poison the hit rate. *)
            let deadline = fresh_deadline budget in
            let sweep = Detk.sweep_cache () in
            let step lvl =
              match cfg.cache with
              | None -> Some (Detk.solve ~deadline ~sweep h ~k:lvl)
              | Some c ->
                  let o, hit =
                    Result_cache.solve_hd c ~sweep ~deadline key ~k:lvl
                  in
                  if not hit then missed := true;
                  Some o
            in
            Option.get (hd_ladder h ~max_k:cfg.max_k ~k step)
        | "portfolio", Some k -> (
            (* The sequential portfolio: [Portfolio.race] spawns domains,
               which would permanently break [Unix.fork] in this
               process — never call it from the daemon. *)
            match
              Ghd.Portfolio.check
                ~budget:(fun () -> fresh_deadline budget)
                h ~k
            with
            | Ghd.Portfolio.Yes (d, alg) ->
                yes h d ~k ~alg:(Ghd.Portfolio.algorithm_name alg)
            | Ghd.Portfolio.No alg ->
                no ~k ~alg:(Ghd.Portfolio.algorithm_name alg)
            | Ghd.Portfolio.All_timeout -> timeout ~k ~alg:"portfolio")
        | m, Some k ->
            let alg = List.assoc m Ghd.Portfolio.methods in
            let a =
              Ghd.Portfolio.solve alg ~deadline:(fresh_deadline budget) h ~k
            in
            ghd_answer a ~k ~alg:m h
        | _, None -> invalid_arg "method requires k")
  in
  let s_cache =
    if cfg.cache = None || meth <> "hd" then "off"
    else if !missed then "miss"
    else "hit"
  in
  { r with s_cache; s_stats = delta }

let wall_of_budget cfg = function
  | Seconds s -> s +. 1.0
  | Fuel _ -> cfg.max_timeout +. 1.0

let run_solve cfg ~meth ~k ~budget key =
  let task = solve_once ~cfg ~meth ~k ~budget key in
  (* Worker-kill injection is decided here, in the daemon, because under
     isolation each forked worker carries a fresh copy of the Fault hit
     counters — a probabilistic clause evaluated in the child would see
     hit 1 on every request. The global counter in the parent keeps the
     firing sequence deterministic across requests and retries. *)
  let kill_worker =
    match Kit.Fault.hit "serve.worker" with
    | () -> false
    | exception Kit.Fault.Injected _ -> true
  in
  if cfg.isolate then begin
    let task =
      if kill_worker then fun () ->
        (* die like a real crashed worker: Proc's reaper classifies the
           signal death, not a marshalled exception *)
        Unix.kill (Unix.getpid ()) Sys.sigabrt;
        task ()
      else task
    in
    let outcomes =
      Kit.Proc.outcomes ~jobs:1 ?mem_mb:cfg.mem_mb
        ~wall:(wall_of_budget cfg budget)
        (fun () -> task ())
        [| () |]
    in
    outcomes.(0)
  end
  else if kill_worker then
    Kit.Outcome.Crash "injected worker kill at serve.worker"
  else
    (* In-process: the Guard soft memory alarm is process-global and
       would misattribute another thread's allocations to this request,
       so it is disabled; hard memory limits need [isolate]. *)
    Kit.Guard.run ~mem_mb:0 task

(* The subsystem a solve exercises, for breaker accounting. *)
let subsystem_of cfg = if cfg.isolate then "isolation" else "solver"

(* Self-healing: a crashed worker is restarted (fresh fork next attempt)
   after a jittered backoff, up to the supervisor's retry budget; every
   restart is counted and charged to the subsystem's breaker. *)
let run_solve_supervised cfg ~meth ~k ~budget key =
  let sup = cfg.supervisor in
  let br = Serve.Supervisor.breaker sup (subsystem_of cfg) in
  let rec attempt n =
    match run_solve cfg ~meth ~k ~budget key with
    | Kit.Outcome.Crash _ when n < Serve.Supervisor.retries sup ->
        Serve.Supervisor.restarted sup;
        Serve.Breaker.failure br;
        Unix.sleepf (Serve.Supervisor.backoff sup ~attempt:n);
        attempt (n + 1)
    | o -> o
  in
  attempt 0

(* ------------------------------------------------------------------ *)
(* HTTP                                                                *)
(* ------------------------------------------------------------------ *)

let json_response ?(headers = []) status (j : Kit.Json.t) =
  Serve.Http.response ~headers status (Kit.Json.to_string j)

let err status msg =
  Serve.Http.response status (Serve.Http.error_body status msg)

(* 422 body: positions as data for tools, the caret report for humans. *)
let rejection ~format ~source diags =
  Kit.Json.Obj
    [
      ("error", Kit.Json.String "parse failure");
      ("format", Kit.Json.String format);
      ("diagnostics", Kit.Diag.all_to_json ~source diags);
      ("rendered", Kit.Json.String (Kit.Diag.render_all ~source diags));
    ]

let payload_err = function
  | Unsupported mt ->
      err 415 ("unsupported content type: " ^ mt)
  | Invalid { format; source; diags } ->
      json_response 422 (rejection ~format ~source diags)

let methods = ("hd" :: List.map fst Ghd.Portfolio.methods) @ [ "portfolio" ]

exception Bad_param of string

let parse_params cfg req =
  let meth =
    match Serve.Http.param req "method" with
    | None -> "hd"
    | Some m ->
        let m = String.lowercase_ascii m in
        if List.mem m methods then m
        else
          raise
            (Bad_param
               (Printf.sprintf "unknown method %S (expected one of %s)" m
                  (String.concat ", " methods)))
  in
  let k =
    match Serve.Http.param req "k" with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some k when k >= 1 -> Some k
        | _ -> raise (Bad_param "k must be a positive integer"))
  in
  if meth <> "hd" && k = None then
    raise (Bad_param ("method " ^ meth ^ " requires k"));
  let budget =
    match Serve.Http.param req "fuel" with
    | Some s -> (
        match int_of_string_opt s with
        | Some f when f >= 1 -> Fuel f
        | _ -> raise (Bad_param "fuel must be a positive integer"))
    | None -> (
        match Serve.Http.param req "timeout" with
        | None -> Seconds cfg.default_timeout
        | Some s -> (
            match float_of_string_opt s with
            | Some t when t > 0. -> Seconds (Float.min t cfg.max_timeout)
            | _ -> raise (Bad_param "timeout must be a positive number")))
  in
  (meth, k, budget)

(* The 200 body for a completed solve. One function for both the normal
   and the degraded (breaker-open, cache-only) path, so a degraded hit
   is byte-identical to the answer the solver would have produced. *)
let solved_json key ~meth (s : solved) =
  Kit.Json.Obj
    [ ("fingerprint", Kit.Json.String (Result_cache.fingerprint key));
      ("method", Kit.Json.String meth);
      ("algorithm", Kit.Json.String s.s_algorithm);
      ("k", if s.s_k >= 0 then Kit.Json.Int s.s_k else Kit.Json.Null);
      ("verdict", Kit.Json.String s.s_verdict);
      ("width",
       if s.s_width >= 0 then Kit.Json.Int s.s_width else Kit.Json.Null);
      ("decomposition",
       if s.s_decomp = "" then Kit.Json.Null
       else Kit.Json.String s.s_decomp) ]

let retry_after_header ra =
  ("Retry-After", string_of_int (max 1 (int_of_float (Float.ceil ra))))

let m_degraded = Kit.Metrics.counter "serve.degraded_hits"

(* Breaker open: the solver subsystem is not to be trusted right now,
   but a cached definitive verdict is still good — serve it. Otherwise
   admit we are degraded: 503 with the breaker's honest probe schedule
   as Retry-After. *)
let degraded cfg key ~meth ~k ~retry_after:ra =
  let cached =
    match cfg.cache with
    | Some c when meth = "hd" ->
        (* the width ladder is answerable from cache only if every
           level up to the first Yes is cached *)
        hd_ladder (Result_cache.hypergraph key) ~max_k:cfg.max_k ~k (fun lvl ->
            Result_cache.find_hd c key ~k:lvl)
    | _ -> None
  in
  match cached with
  | Some s ->
      Kit.Metrics.incr m_degraded;
      let s = { s with s_cache = "hit" } in
      json_response 200
        ~headers:
          [ ("X-HB-Cache", s.s_cache);
            ("X-HB-Seconds", "0.000000");
            ("X-HB-Degraded", "cache") ]
        (solved_json key ~meth s)
  | None ->
      Serve.Http.response
        ~headers:[ retry_after_header ra; ("X-HB-Degraded", "breaker-open") ]
        503
        (Serve.Http.error_body 503
           "decomposition temporarily unavailable (circuit open)")

(* [X-HB-Deadline: seconds-remaining] — set by [Serve.Client.request_retry].
   An already-expired deadline is answered 504 without solving; otherwise
   the advertised remainder caps the solve budget, so the server never
   burns a worker on an answer the client has stopped waiting for. *)
let client_deadline req =
  match Serve.Http.header req "x-hb-deadline" with
  | None -> Ok None
  | Some v -> (
      match float_of_string_opt (String.trim v) with
      | Some d when d > 0. -> Ok (Some d)
      | Some _ -> Error ()
      | None -> Ok None (* unparseable: ignore, header is advisory *))

let decompose cfg req =
  match parse_payload req with
  | Error pe -> payload_err pe
  | Ok h -> (
      match parse_params cfg req with
      | exception Bad_param msg -> err 400 msg
      | meth, k, budget -> (
          match client_deadline req with
          | Error () -> err 504 "client deadline already expired"
          | Ok dl -> (
              let budget =
                match (budget, dl) with
                | Seconds s, Some d -> Seconds (Float.min s d)
                | b, _ -> b
              in
              (* The request's one fingerprint: every cache level, the
                 degraded path and the response body read it here. *)
              let key = Result_cache.key h in
              let br =
                Serve.Supervisor.breaker cfg.supervisor (subsystem_of cfg)
              in
              match Serve.Breaker.acquire br with
              | `Reject ra -> degraded cfg key ~meth ~k ~retry_after:ra
              | `Proceed | `Probe -> (
                  let t0 = Unix.gettimeofday () in
                  match run_solve_supervised cfg ~meth ~k ~budget key with
                  | Kit.Outcome.Ok s ->
                      Serve.Breaker.success br;
                      (* In-process solves recorded straight into this
                         domain's store; only a forked worker's delta
                         needs replaying. *)
                      if cfg.isolate then Kit.Metrics.absorb s.s_stats;
                      let seconds = Unix.gettimeofday () -. t0 in
                      json_response 200
                        ~headers:
                          [ ("X-HB-Cache", s.s_cache);
                            ("X-HB-Seconds", Printf.sprintf "%.6f" seconds) ]
                        (solved_json key ~meth s)
                  | Kit.Outcome.Timeout ->
                      (* The watchdog killed the worker: the budget is
                         spent and the level is whatever the client asked
                         for. Containment doing its job is subsystem
                         health, not failure. *)
                      Serve.Breaker.success br;
                      let seconds = Unix.gettimeofday () -. t0 in
                      json_response 200
                        ~headers:
                          [ ("X-HB-Seconds", Printf.sprintf "%.6f" seconds) ]
                        (solved_json key ~meth
                           (timeout
                              ~k:(Option.value k ~default:(-1))
                              ~alg:meth))
                  | Kit.Outcome.Out_of_memory ->
                      Serve.Breaker.success br;
                      Serve.Http.response
                        ~headers:[ ("Retry-After", "1") ]
                        503
                        (Serve.Http.error_body 503
                           "solver exceeded its memory budget")
                  | Kit.Outcome.Stack_overflow ->
                      Serve.Breaker.success br;
                      err 500 "solver stack overflow"
                  | Kit.Outcome.Crash msg ->
                      (* Out of restart budget: charge the breaker and
                         answer with its honest probe schedule. *)
                      Serve.Breaker.failure br;
                      Serve.Http.response
                        ~headers:
                          [ retry_after_header (Serve.Breaker.retry_after br) ]
                        503
                        (Serve.Http.error_body 503
                           ("solver crashed: "
                           ^ (match String.index_opt msg '\n' with
                             | Some i -> String.sub msg 0 i
                             | None -> msg)))))))

let usage =
  Kit.Json.to_string
    (Kit.Json.Obj
       [ ("service", Kit.Json.String "hyperbenchd");
         ("endpoints",
          Kit.Json.Obj
            [ ("GET /healthz", Kit.Json.String "liveness probe");
              ("GET /metrics", Kit.Json.String "Prometheus text format");
              ("POST /decompose",
               Kit.Json.String
                 ("body: hypergraph (Content-Type selects HG text, binary, \
                   SQL or XCSP3); query: k, method ("
                 ^ String.concat "|" methods
                 ^ "), timeout (seconds), fuel")) ]) ])

let handler cfg =
  let router =
    Serve.Router.create
      [ ("GET", "/", fun _ -> Serve.Http.response 200 usage);
        ("GET", "/healthz",
         fun _ ->
           (* Liveness plus supervision detail: ok is false only while
              some subsystem's breaker is open (the status stays 200 —
              the daemon itself is alive and still answering). *)
           let subs = Serve.Supervisor.subsystems cfg.supervisor in
           let ok =
             List.for_all (fun (_, st) -> st <> Serve.Breaker.Open) subs
           in
           Serve.Http.response 200
             (Kit.Json.to_string
                (Kit.Json.Obj
                   [ ("ok", Kit.Json.Bool ok);
                     ("subsystems",
                      Kit.Json.Obj
                        (List.map
                           (fun (n, st) ->
                             (n, Kit.Json.String (Serve.Breaker.state_name st)))
                           subs)) ])));
        ("GET", "/metrics",
         fun _ ->
           Serve.Http.response ~content_type:"text/plain; version=0.0.4"
             200
             (Serve.Prometheus.render (Kit.Metrics.snapshot ())));
        ("POST", "/decompose", decompose cfg) ]
  in
  fun req -> Serve.Router.dispatch router req
