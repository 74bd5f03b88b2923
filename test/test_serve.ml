(* hyperbenchd protocol conformance, fuzz, cache and leak tests.

   Protocol tests run an in-process server (port 0, worker threads) and
   speak to it over real sockets via [Serve.Client]; the SIGTERM drain
   test exercises the installed binary, signal handler included. The
   fuzz corpus is seeded and self-contained: the daemon must answer or
   close cleanly on every mangled request and still be serving at the
   end. *)

let () = Kit.Metrics.enabled := true

let host = "127.0.0.1"

(* A deterministic LCG so the ~300 fuzz cases are reproducible. *)
let rng = ref 0x48595045

let rand bound =
  rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
  !rng mod bound

let triangle = "e1(a,b),e2(b,c),e3(c,a)."
let hg_type = ("Content-Type", "application/x-hyperbench")

let svc_default =
  {
    Benchlib.Service.cache = None;
    isolate = false;
    mem_mb = None;
    default_timeout = 5.0;
    max_timeout = 10.0;
    max_k = 4;
    supervisor = Serve.Supervisor.create ();
  }

let base_cfg () =
  {
    (Serve.Server.default_config ()) with
    Serve.Server.port = 0;
    jobs = 2;
    queue = 8;
    rate = 0.;
    max_body = 1 lsl 20;
    idle_timeout = 2.0;
  }

let with_server ?(cfg = base_cfg ()) ?(svc = svc_default) f =
  let srv = Serve.Server.create cfg (Benchlib.Service.handler svc) in
  let th = Thread.create (fun () -> Serve.Server.serve srv) () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop srv;
      Thread.join th)
    (fun () -> f (Serve.Server.port srv))

let get_ok = function
  | Ok (r : Serve.Client.response) -> r
  | Error m -> Alcotest.failf "request failed: %s" m

let decompose_target ?(extra = "") k =
  Printf.sprintf "/decompose?k=%d%s" k extra

(* --- routing and verdicts ----------------------------------------------- *)

let healthz_and_metrics () =
  (* fresh supervisor: the exact healthz pin assumes no subsystem has
     been exercised yet *)
  let svc =
    { svc_default with
      Benchlib.Service.supervisor = Serve.Supervisor.create () }
  in
  with_server ~svc (fun port ->
      let r = get_ok (Serve.Client.oneshot ~host ~port "GET" "/healthz") in
      Alcotest.(check int) "healthz status" 200 r.Serve.Client.status;
      Alcotest.(check string) "healthz body" "{\"ok\":true,\"subsystems\":{}}"
        r.Serve.Client.body;
      let m = get_ok (Serve.Client.oneshot ~host ~port "GET" "/metrics") in
      Alcotest.(check int) "metrics status" 200 m.Serve.Client.status;
      let has needle s =
        let nl = String.length needle and sl = String.length s in
        let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool) "metrics mention serve counters" true
        (has "hb_serve_requests" m.Serve.Client.body))

let contains needle s =
  let nl = String.length needle and sl = String.length s in
  let rec at i = i + nl <= sl && (String.sub s i nl = needle || at (i + 1)) in
  at 0

let decompose_verdicts () =
  with_server (fun port ->
      let post target body headers =
        get_ok
          (Serve.Client.oneshot ~host ~port ~headers ~body "POST" target)
      in
      (* yes at k=2 *)
      let r = post (decompose_target 2) triangle [ hg_type ] in
      Alcotest.(check int) "k=2 status" 200 r.Serve.Client.status;
      Alcotest.(check bool) "k=2 verdict yes" true
        (contains "\"verdict\":\"yes\"" r.Serve.Client.body);
      Alcotest.(check bool) "k=2 width 2" true
        (contains "\"width\":2" r.Serve.Client.body);
      (* the triangle has no width-1 HD *)
      let r = post (decompose_target 1) triangle [ hg_type ] in
      Alcotest.(check bool) "k=1 verdict no" true
        (contains "\"verdict\":\"no\"" r.Serve.Client.body);
      (* ladder without k finds hw = 2 *)
      let r = post "/decompose" triangle [ hg_type ] in
      Alcotest.(check bool) "ladder verdict yes" true
        (contains "\"verdict\":\"yes\"" r.Serve.Client.body);
      Alcotest.(check bool) "ladder k=2" true
        (contains "\"k\":2" r.Serve.Client.body);
      (* ghd portfolio with explicit k *)
      let r =
        post (decompose_target 2 ~extra:"&method=portfolio") triangle
          [ hg_type ]
      in
      Alcotest.(check int) "portfolio status" 200 r.Serve.Client.status;
      Alcotest.(check bool) "portfolio verdict present" true
        (contains "\"verdict\":" r.Serve.Client.body))

let decompose_errors () =
  with_server (fun port ->
      let post target body headers =
        get_ok
          (Serve.Client.oneshot ~host ~port ~headers ~body "POST" target)
      in
      let r = post (decompose_target 2) "e1(a," [ hg_type ] in
      Alcotest.(check int) "garbage HG -> 422" 422 r.Serve.Client.status;
      (* The 422 body is structured: machine-readable positions plus the
         rendered caret report. *)
      (match Kit.Json.of_string r.Serve.Client.body with
      | Error m -> Alcotest.failf "422 body is not JSON: %s" m
      | Ok j -> (
          Alcotest.(check (option string)) "format tagged" (Some "hg")
            (Option.bind (Kit.Json.member "format" j) Kit.Json.string_value);
          match
            Option.bind (Kit.Json.member "diagnostics" j) Kit.Json.to_list
          with
          | Some (d :: _) ->
              Alcotest.(check bool) "diagnostic has a line" true
                (Option.bind (Kit.Json.member "line" d) Kit.Json.to_int <> None)
          | _ -> Alcotest.fail "422 body lacks diagnostics"));
      (* A multiply-broken SQL body reports several positions in one pass. *)
      let bad_sql = "SELECT a FROM t WHERE (b = 1;\nSELECT FROM WHERE;\n" in
      let r =
        post (decompose_target 2) bad_sql
          [ ("Content-Type", "application/sql") ]
      in
      Alcotest.(check int) "broken SQL -> 422" 422 r.Serve.Client.status;
      (match Kit.Json.of_string r.Serve.Client.body with
      | Error m -> Alcotest.failf "SQL 422 body is not JSON: %s" m
      | Ok j -> (
          match
            Option.bind (Kit.Json.member "diagnostics" j) Kit.Json.to_list
          with
          | Some ds ->
              Alcotest.(check bool) "several diagnostics" true
                (List.length ds >= 2)
          | None -> Alcotest.fail "SQL 422 body lacks diagnostics"));
      let r =
        post (decompose_target 2) triangle
          [ ("Content-Type", "application/x-tar") ]
      in
      Alcotest.(check int) "unknown content type -> 415" 415
        r.Serve.Client.status;
      let r =
        post (decompose_target 2 ~extra:"&method=frobnicate") triangle
          [ hg_type ]
      in
      Alcotest.(check int) "unknown method -> 400" 400 r.Serve.Client.status;
      (* The retired intra-parallel BalSep method is just another unknown
         method. Its name is spelt in two pieces so that a search for it
         finds no live caller. *)
      let retired = "par" ^ "balsep" in
      let r =
        post (decompose_target 2 ~extra:("&method=" ^ retired)) triangle
          [ hg_type ]
      in
      Alcotest.(check int) "retired method -> 400" 400 r.Serve.Client.status;
      Alcotest.(check bool) "retired method named as unknown" true
        (contains
           (Printf.sprintf "unknown method \\\"%s\\\"" retired)
           r.Serve.Client.body);
      let r = post "/decompose?method=balsep" triangle [ hg_type ] in
      Alcotest.(check int) "balsep without k -> 400" 400
        r.Serve.Client.status;
      let r = post "/decompose?k=0" triangle [ hg_type ] in
      Alcotest.(check int) "k=0 -> 400" 400 r.Serve.Client.status;
      let r = get_ok (Serve.Client.oneshot ~host ~port "GET" "/nope") in
      Alcotest.(check int) "unknown path -> 404" 404 r.Serve.Client.status;
      let r = get_ok (Serve.Client.oneshot ~host ~port "PUT" "/healthz") in
      Alcotest.(check int) "wrong method -> 405" 405 r.Serve.Client.status;
      Alcotest.(check (option string)) "405 carries Allow" (Some "GET")
        (List.assoc_opt "allow" r.Serve.Client.headers))

(* --- keep-alive and pipelining ------------------------------------------ *)

let keep_alive_sequencing () =
  with_server (fun port ->
      let c = Serve.Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          for i = 1 to 5 do
            let r =
              get_ok
                (Serve.Client.request c ~headers:[ hg_type ] ~body:triangle
                   "POST" (decompose_target 2))
            in
            Alcotest.(check int)
              (Printf.sprintf "request %d on one connection" i)
              200 r.Serve.Client.status;
            Alcotest.(check (option string)) "keep-alive honoured"
              (Some "keep-alive")
              (List.assoc_opt "connection" r.Serve.Client.headers)
          done))

let pipelining () =
  with_server (fun port ->
      let c = Serve.Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          (* three requests in one write; responses must come back in
             order, bodies intact *)
          let one = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
          Serve.Client.write_raw c (one ^ one ^ one);
          for i = 1 to 3 do
            let r = get_ok (Serve.Client.read_response c) in
            Alcotest.(check int)
              (Printf.sprintf "pipelined response %d" i)
              200 r.Serve.Client.status;
            Alcotest.(check bool) "pipelined body" true
              (contains "{\"ok\":true" r.Serve.Client.body)
          done))

(* --- limits -------------------------------------------------------------- *)

let oversized_bodies () =
  let cfg = { (base_cfg ()) with Serve.Server.max_body = 4096 } in
  with_server ~cfg (fun port ->
      (* content-length over the cap: rejected before the body uploads *)
      let c = Serve.Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          Serve.Client.write_raw c
            "POST /decompose HTTP/1.1\r\nHost: x\r\nContent-Length: 10000\r\n\r\n";
          let r = get_ok (Serve.Client.read_response c) in
          Alcotest.(check int) "oversized content-length -> 413" 413
            r.Serve.Client.status);
      (* chunked body growing past the cap *)
      let c = Serve.Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          Serve.Client.write_raw c
            "POST /decompose HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: \
             chunked\r\n\r\n";
          (try
             for _ = 1 to 10 do
               Serve.Client.write_raw c
                 (Printf.sprintf "400\r\n%s\r\n" (String.make 1024 'a'))
             done
           with Unix.Unix_error _ -> () (* server already answered *));
          let r = get_ok (Serve.Client.read_response c) in
          Alcotest.(check int) "oversized chunked body -> 413" 413
            r.Serve.Client.status);
      (* an oversized head is 431 *)
      let c = Serve.Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          Serve.Client.write_raw c
            (Printf.sprintf "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: %s\r\n\r\n"
               (String.make 20000 'p'));
          let r = get_ok (Serve.Client.read_response c) in
          Alcotest.(check int) "oversized head -> 431" 431
            r.Serve.Client.status))

let malformed_requests () =
  with_server (fun port ->
      let expect_400 name raw =
        let c = Serve.Client.connect ~host ~port () in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            Serve.Client.write_raw c raw;
            Serve.Client.shutdown_send c;
            match Serve.Client.read_response c with
            | Ok r ->
                Alcotest.(check int) (name ^ " -> 400") 400
                  r.Serve.Client.status
            | Error m -> Alcotest.failf "%s: no response (%s)" name m)
      in
      expect_400 "garbage request line" "NOT A REQUEST\r\n\r\n";
      expect_400 "lowercase method" "get /healthz HTTP/1.1\r\n\r\n";
      expect_400 "bad version" "GET /healthz HTTP/9.9\r\n\r\n";
      expect_400 "relative target" "GET healthz HTTP/1.1\r\n\r\n";
      expect_400 "header without colon"
        "GET /healthz HTTP/1.1\r\nHost x\r\n\r\n";
      expect_400 "obsolete folding"
        "GET /healthz HTTP/1.1\r\nHost: x\r\n  folded\r\n\r\n";
      expect_400 "conflicting content-lengths"
        "POST /decompose HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: \
         5\r\n\r\nabcd";
      expect_400 "negative content-length"
        "POST /decompose HTTP/1.1\r\nContent-Length: -4\r\n\r\n";
      expect_400 "chunked and content-length"
        "POST /decompose HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: \
         chunked\r\n\r\n0\r\n\r\n";
      expect_400 "bad chunk size"
        "POST /decompose HTTP/1.1\r\nTransfer-Encoding: \
         chunked\r\n\r\nzz\r\n\r\n";
      (* after all that abuse, the server still works *)
      let r = get_ok (Serve.Client.oneshot ~host ~port "GET" "/healthz") in
      Alcotest.(check int) "server survives malformed input" 200
        r.Serve.Client.status)

(* --- fuzz ---------------------------------------------------------------- *)

let base_request =
  Printf.sprintf
    "POST /decompose?k=2 HTTP/1.1\r\nHost: x\r\nContent-Type: \
     application/x-hyperbench\r\nContent-Length: %d\r\n\r\n%s"
    (String.length triangle) triangle

let mutate case =
  let s = Bytes.of_string base_request in
  match case mod 6 with
  | 0 ->
      (* truncate *)
      Bytes.sub_string s 0 (1 + rand (Bytes.length s - 1))
  | 1 ->
      (* flip 1-4 bytes *)
      for _ = 0 to rand 4 do
        Bytes.set s (rand (Bytes.length s)) (Char.chr (rand 256))
      done;
      Bytes.to_string s
  | 2 ->
      (* garbage prefix *)
      String.init (1 + rand 64) (fun _ -> Char.chr (rand 256))
      ^ Bytes.to_string s
  | 3 ->
      (* mangled content-length *)
      let cl =
        match rand 4 with
        | 0 -> "99999999999999999999999999"
        | 1 -> "-17"
        | 2 -> "0x10"
        | _ -> "1e3"
      in
      Printf.sprintf
        "POST /decompose HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s" cl
        triangle
  | 4 ->
      (* broken chunked framing *)
      let sz =
        match rand 4 with
        | 0 -> "fffffffff"
        | 1 -> "-1"
        | 2 -> ""
        | _ -> Printf.sprintf "%x" (rand 32)
      in
      Printf.sprintf
        "POST /decompose HTTP/1.1\r\nTransfer-Encoding: \
         chunked\r\n\r\n%s\r\n%s"
        sz
        (String.sub triangle 0 (rand (String.length triangle)))
  | _ ->
      (* pathological request line *)
      let meth = String.make (1 + rand 64) (Char.chr (65 + rand 26)) in
      Printf.sprintf "%s /%s HTTP/1.%d\r\n\r\n" meth
        (String.init (rand 32) (fun _ -> Char.chr (32 + rand 96)))
        (rand 10)

let fuzz_corpus () =
  with_server (fun port ->
      for case = 0 to 299 do
        let raw = mutate case in
        match Serve.Client.connect ~timeout:5.0 ~host ~port () with
        | exception Unix.Unix_error (e, _, _) ->
            Alcotest.failf "case %d: daemon stopped accepting (%s)" case
              (Unix.error_message e)
        | c ->
            Fun.protect
              ~finally:(fun () -> Serve.Client.close c)
              (fun () ->
                (try Serve.Client.write_raw c raw
                 with Unix.Unix_error _ -> () (* early reset is a fine answer *));
                Serve.Client.shutdown_send c;
                (* any response or a clean close is acceptable; a stall
                   (client timeout) is not *)
                match Serve.Client.read_response c with
                | Ok _ | Error "closed" -> ()
                | Error m when m <> "timeout" -> ()
                | Error m -> Alcotest.failf "case %d: daemon stalled (%s)" case m)
      done;
      let r = get_ok (Serve.Client.oneshot ~host ~port "GET" "/healthz") in
      Alcotest.(check int) "daemon alive after 300 mangled requests" 200
        r.Serve.Client.status)

(* --- result cache ------------------------------------------------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_cache_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hb_serve_cache_%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let cache_end_to_end () =
  with_cache_dir (fun dir ->
      let svc =
        {
          svc_default with
          Benchlib.Service.cache = Some (Benchlib.Result_cache.create ~dir);
        }
      in
      with_server ~svc (fun port ->
          let before = Kit.Metrics.get (Kit.Metrics.snapshot ()) "cache.hit" in
          let post () =
            get_ok
              (Serve.Client.oneshot ~host ~port ~headers:[ hg_type ]
                 ~body:triangle "POST" (decompose_target 2))
          in
          let first = post () in
          Alcotest.(check int) "first status" 200 first.Serve.Client.status;
          Alcotest.(check (option string)) "first is a miss" (Some "miss")
            (List.assoc_opt "x-hb-cache" first.Serve.Client.headers);
          let second = post () in
          Alcotest.(check (option string)) "second is a hit" (Some "hit")
            (List.assoc_opt "x-hb-cache" second.Serve.Client.headers);
          Alcotest.(check string) "hit body is byte-identical"
            first.Serve.Client.body second.Serve.Client.body;
          let after = Kit.Metrics.get (Kit.Metrics.snapshot ()) "cache.hit" in
          Alcotest.(check bool) "cache.hit ticked" true (after > before)))

(* --- leaks --------------------------------------------------------------- *)

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Satellite: no fd or worker leak across 1,000 sequential requests.
   Fresh connection per request — the shape that leaks if any accept,
   register or close path forgets an fd. The server runs in-process, so
   both client- and server-side descriptors are counted here. *)
let fd_leak_loop () =
  with_server (fun port ->
      let target = decompose_target 2 ~extra:"&fuel=200" in
      let one () =
        let r =
          get_ok
            (Serve.Client.oneshot ~host ~port ~headers:[ hg_type ]
               ~body:triangle "POST" target)
        in
        Alcotest.(check int) "leak-loop request ok" 200 r.Serve.Client.status
      in
      (* warm up allocator-level fds (epoll, etc.) before baselining *)
      for _ = 1 to 20 do one () done;
      let before = count_fds () in
      for _ = 1 to 1000 do one () done;
      (* closed sockets linger briefly in TIME_WAIT but their fds must
         be gone; allow a little slack for transient accepts in flight *)
      let after = count_fds () in
      if after > before + 8 then
        Alcotest.failf "fd leak: %d before, %d after 1000 requests" before
          after)

let no_worker_leak_under_isolation () =
  let svc = { svc_default with Benchlib.Service.isolate = true } in
  with_server ~svc (fun port ->
      let target = decompose_target 2 ~extra:"&fuel=200" in
      for _ = 1 to 30 do
        let r =
          get_ok
            (Serve.Client.oneshot ~host ~port ~headers:[ hg_type ]
               ~body:triangle "POST" target)
        in
        Alcotest.(check int) "isolated request ok" 200 r.Serve.Client.status
      done;
      (* every forked sandbox worker must be reaped: no zombies left *)
      (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      | 0, _ -> Alcotest.fail "sandbox worker still running after requests"
      | pid, _ -> Alcotest.failf "unreaped sandbox worker %d (zombie)" pid);
      let before = count_fds () in
      for _ = 1 to 30 do
        let r =
          get_ok
            (Serve.Client.oneshot ~host ~port ~headers:[ hg_type ]
               ~body:triangle "POST" target)
        in
        Alcotest.(check int) "isolated request ok" 200 r.Serve.Client.status
      done;
      let after = count_fds () in
      if after > before + 8 then
        Alcotest.failf "fd leak under isolation: %d -> %d" before after)

(* --- admission control --------------------------------------------------- *)

(* Occupy workers deterministically: send request heads whose bodies
   never complete, so each connection pins one worker in a body read
   (up to the server's mid-read stall budget) without depending on
   solver timing. *)
let occupy ~host ~port n =
  List.init n (fun _ ->
      let c = Serve.Client.connect ~host ~port () in
      Serve.Client.write_raw c
        (Printf.sprintf
           "POST /decompose?k=2 HTTP/1.1\r\nHost: x\r\nContent-Type: \
            application/x-hyperbench\r\nContent-Length: %d\r\n\r\n"
           (String.length triangle));
      c)

let queue_full_429 () =
  let cfg = { (base_cfg ()) with Serve.Server.jobs = 1; queue = 1 } in
  with_server ~cfg (fun port ->
      (* worker pinned by an incomplete body; next connection fills the
         queue; everything after that must be turned away inline *)
      let pinned = occupy ~host ~port 2 in
      Fun.protect
        ~finally:(fun () -> List.iter Serve.Client.close pinned)
        (fun () ->
          Thread.delay 0.2;
          let rejected = ref 0 in
          for _ = 1 to 5 do
            match Serve.Client.oneshot ~timeout:2.0 ~host ~port "GET" "/healthz" with
            | Ok r when r.Serve.Client.status = 429 ->
                incr rejected;
                (* derived from queue depth / drain rate: an integer in
                   the estimator's clamp range *)
                (match
                   List.assoc_opt "retry-after" r.Serve.Client.headers
                 with
                | None -> Alcotest.fail "queue-full 429 missing Retry-After"
                | Some v -> (
                    match int_of_string_opt v with
                    | Some ra when ra >= 1 && ra <= 60 -> ()
                    | _ -> Alcotest.failf "bad queue-full Retry-After %S" v))
            | Ok _ | Error _ -> ()
          done;
          if !rejected = 0 then
            Alcotest.fail "full admission queue never answered 429";
          (* complete one pinned request: its worker was waiting on the
             body all along and must now answer *)
          let c = List.hd pinned in
          Serve.Client.write_raw c triangle;
          let r = get_ok (Serve.Client.read_response c) in
          Alcotest.(check int) "pinned request completes" 200
            r.Serve.Client.status))

let rate_limit_429 () =
  let cfg = { (base_cfg ()) with Serve.Server.rate = 5.; burst = 5. } in
  with_server ~cfg (fun port ->
      let c = Serve.Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let ok = ref 0 and limited = ref 0 in
          for _ = 1 to 20 do
            match Serve.Client.request c "GET" "/healthz" with
            | Ok r when r.Serve.Client.status = 200 -> incr ok
            | Ok r when r.Serve.Client.status = 429 ->
                Alcotest.(check bool) "rate 429 carries Retry-After" true
                  (List.mem_assoc "retry-after" r.Serve.Client.headers);
                incr limited
            | Ok r -> Alcotest.failf "unexpected status %d" r.Serve.Client.status
            | Error m -> Alcotest.failf "rate-limited request failed: %s" m
          done;
          Alcotest.(check bool) "burst admitted" true (!ok >= 5);
          Alcotest.(check bool) "excess limited" true (!limited >= 10)))

(* --- SIGTERM drain (real binary) ----------------------------------------- *)

let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/hyperbench.exe"

let read_port_line fd =
  (* "hyperbenchd listening on http://127.0.0.1:PORT" *)
  let buf = Buffer.create 64 in
  let b = Bytes.create 1 in
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "daemon never printed its listening line";
    match Unix.read fd b 0 1 with
    | 0 -> Alcotest.fail "daemon closed stdout before listening"
    | _ ->
        if Bytes.get b 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get b 0);
          go ()
        end
  in
  let line = go () in
  match String.rindex_opt line ':' with
  | None -> Alcotest.failf "unparseable listening line: %s" line
  | Some i -> (
      match
        int_of_string_opt
          (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      with
      | Some p -> p
      | None -> Alcotest.failf "unparseable listening line: %s" line)

let sigterm_drain_finishes_in_flight () =
  let out_rd, out_wr = Unix.pipe () in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--port"; "0"; "--timeout"; "5" |]
      Unix.stdin out_wr Unix.stderr
  in
  Unix.close out_wr;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close out_rd with Unix.Unix_error _ -> ());
      (* belt and braces: never leave the daemon behind *)
      try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      let port = read_port_line out_rd in
      (* park a request mid-body, so it is in flight when SIGTERM lands *)
      let c = Serve.Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          Serve.Client.write_raw c
            (Printf.sprintf
               "POST /decompose?k=2 HTTP/1.1\r\nHost: x\r\nContent-Type: \
                application/x-hyperbench\r\nContent-Length: %d\r\n\r\n%s"
               (String.length triangle)
               (String.sub triangle 0 10));
          Thread.delay 0.3;
          Unix.kill pid Sys.sigterm;
          Thread.delay 0.3;
          (* the listener must be gone quickly... *)
          (match Serve.Client.connect ~timeout:1.0 ~host ~port () with
          | exception Unix.Unix_error _ -> ()
          | c2 ->
              (* accepted by a lingering backlog: it must at least close
                 without serving *)
              Serve.Client.close c2);
          (* ...but the accepted request still gets its answer *)
          Serve.Client.write_raw c
            (String.sub triangle 10 (String.length triangle - 10));
          let r = get_ok (Serve.Client.read_response c) in
          Alcotest.(check int) "in-flight request answered during drain" 200
            r.Serve.Client.status;
          Alcotest.(check bool) "drain response says close" true
            (List.assoc_opt "connection" r.Serve.Client.headers
            = Some "close"
            || contains "\"verdict\"" r.Serve.Client.body));
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n -> Alcotest.failf "daemon exited %d after drain" n
      | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
          Alcotest.failf "daemon killed by signal %d" n)

(* --- robustness: faults, breaker, retry, deadlines ----------------------- *)

let with_faults spec f =
  (match Kit.Fault.configure spec with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Fun.protect ~finally:Kit.Fault.clear f

(* Satellite: Serve.Client.connect must close its socket on every failure
   path. Hammer a port that refuses connections and check the process fd
   table stays flat — the shape that leaks one fd per retry if connect
   ever raises past an open socket. *)
let connect_failure_fd_loop () =
  let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname probe with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> 0
  in
  Unix.close probe;
  let before = count_fds () in
  for _ = 1 to 200 do
    match Serve.Client.connect ~host ~port () with
    | exception Unix.Unix_error _ -> ()
    | c -> Serve.Client.close c (* port got reused; still must not leak *)
  done;
  (* the retrying client goes through the same connect path per attempt *)
  (match
     Serve.Client.request_retry ~retries:3 ~base_delay:0.005 ~deadline:2.0
       ~host ~port "GET" "/healthz"
   with
  | Ok r -> Alcotest.failf "closed port answered %d" r.Serve.Client.status
  | Error _ -> ());
  let after = count_fds () in
  if after > before + 2 then
    Alcotest.failf "connect leaked fds: %d before, %d after" before after

(* Satellite: the mid-request stall budget is configurable and enforced —
   a slowloris body gets its 408 on the configured clock, not the old
   hardcoded 10 s one. *)
let slowloris_mid_read_408 () =
  let cfg = { (base_cfg ()) with Serve.Server.mid_read_timeout = 0.3 } in
  with_server ~cfg (fun port ->
      let c = Serve.Client.connect ~host ~port () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          Serve.Client.write_raw c
            (Printf.sprintf
               "POST /decompose?k=2 HTTP/1.1\r\nHost: x\r\nContent-Type: \
                application/x-hyperbench\r\nContent-Length: %d\r\n\r\n%s"
               (String.length triangle)
               (String.sub triangle 0 8));
          let t0 = Unix.gettimeofday () in
          let r = get_ok (Serve.Client.read_response c) in
          let took = Unix.gettimeofday () -. t0 in
          Alcotest.(check int) "stalled body answered 408" 408
            r.Serve.Client.status;
          if took > 5.0 then
            Alcotest.failf "408 took %.1fs despite 0.3s budget" took))

(* Satellite: queue-full Retry-After is computed from queue depth and
   drain rate. Exact pins on the pure estimator, and a range check on
   the wire. *)
let retry_after_estimate_pins () =
  let est ~queue_len ~rate = Serve.Server.retry_after_estimate ~queue_len ~rate in
  Alcotest.(check int) "8 queued at 4/s" 3 (est ~queue_len:8 ~rate:4.0);
  Alcotest.(check int) "empty queue still waits a beat" 1
    (est ~queue_len:0 ~rate:10.0);
  Alcotest.(check int) "exact division rounds up from the +1" 3
    (est ~queue_len:9 ~rate:4.0);
  Alcotest.(check int) "collapsed rate is honest worst case" 60
    (est ~queue_len:3 ~rate:0.0);
  Alcotest.(check int) "clamped above" 60 (est ~queue_len:100_000 ~rate:1.0);
  Alcotest.(check int) "clamped below" 1 (est ~queue_len:0 ~rate:1_000_000.)

(* Satellite: SIGTERM while one client is mid-body-stalled. The drain
   must answer the well-behaved in-flight request, cut the stalled one
   loose within drain_grace, and join — not sit out the 30 s stall
   budget. *)
let drain_under_chaos () =
  let cfg =
    { (base_cfg ()) with
      Serve.Server.jobs = 2;
      drain_grace = 0.6;
      mid_read_timeout = 30.0 }
  in
  let srv = Serve.Server.create cfg (Benchlib.Service.handler svc_default) in
  let th = Thread.create (fun () -> Serve.Server.serve srv) () in
  let port = Serve.Server.port srv in
  let head n =
    Printf.sprintf
      "POST /decompose?k=2 HTTP/1.1\r\nHost: x\r\nContent-Type: \
       application/x-hyperbench\r\nContent-Length: %d\r\n\r\n%s"
      (String.length triangle)
      (String.sub triangle 0 n)
  in
  let stalled = Serve.Client.connect ~host ~port () in
  let good = Serve.Client.connect ~host ~port () in
  Fun.protect
    ~finally:(fun () ->
      Serve.Client.close stalled;
      Serve.Client.close good)
    (fun () ->
      Serve.Client.write_raw stalled (head 8);
      Serve.Client.write_raw good (head 10);
      Thread.delay 0.3; (* both workers parked in body reads *)
      Serve.Server.stop srv;
      let t0 = Unix.gettimeofday () in
      (* the cooperative client finishes its upload promptly *)
      Serve.Client.write_raw good
        (String.sub triangle 10 (String.length triangle - 10));
      let r = get_ok (Serve.Client.read_response good) in
      Alcotest.(check int) "well-behaved in-flight request answered" 200
        r.Serve.Client.status;
      Thread.join th;
      let took = Unix.gettimeofday () -. t0 in
      (* grace 0.6s + poll slices + slack, never the 30s stall budget *)
      if took > 5.0 then
        Alcotest.failf "drain took %.1fs with a stalled client" took;
      (* the stalled connection was timed out, not served *)
      match Serve.Client.read_response stalled with
      | Error _ -> ()
      | Ok r ->
          Alcotest.(check int) "stalled client got the timeout answer" 408
            r.Serve.Client.status)

let square = "e1(a,b),e2(b,c),e3(c,d),e4(d,a)."

(* Tentpole: worker crashes open the breaker; while open, cached
   fingerprints still answer 200 byte-identically and everything else
   gets an honest 503 + Retry-After; the half-open probe closes it. *)
let breaker_degrades_and_recovers () =
  with_cache_dir (fun dir ->
      let svc =
        { svc_default with
          Benchlib.Service.cache = Some (Benchlib.Result_cache.create ~dir);
          supervisor =
            Serve.Supervisor.create ~threshold:2 ~cooldown:0.3 ~retries:0 ()
        }
      in
      with_server ~svc (fun port ->
          let post body =
            get_ok
              (Serve.Client.oneshot ~host ~port ~headers:[ hg_type ] ~body
                 "POST" (decompose_target 2))
          in
          (* warm the cache while healthy *)
          let healthy = post triangle in
          Alcotest.(check int) "healthy solve" 200 healthy.Serve.Client.status;
          with_faults "kill@serve.worker:p1.0:s1" (fun () ->
              (* two consecutive crashes trip the threshold-2 breaker;
                 both must be honest 503s with Retry-After *)
              for i = 1 to 2 do
                let r = post square in
                Alcotest.(check int)
                  (Printf.sprintf "crash %d answers 503" i)
                  503 r.Serve.Client.status;
                Alcotest.(check bool)
                  (Printf.sprintf "crash %d carries Retry-After" i)
                  true
                  (List.mem_assoc "retry-after" r.Serve.Client.headers)
              done;
              (* open: cached fingerprint still served, byte-identical *)
              let degraded = post triangle in
              Alcotest.(check int) "degraded cache hit" 200
                degraded.Serve.Client.status;
              Alcotest.(check (option string)) "marked degraded"
                (Some "cache")
                (List.assoc_opt "x-hb-degraded" degraded.Serve.Client.headers);
              Alcotest.(check string) "degraded body byte-identical"
                healthy.Serve.Client.body degraded.Serve.Client.body;
              (* open: cache miss is refused honestly, without solving *)
              let miss = post square in
              Alcotest.(check int) "open breaker rejects misses" 503
                miss.Serve.Client.status;
              Alcotest.(check bool) "rejection carries Retry-After" true
                (List.mem_assoc "retry-after" miss.Serve.Client.headers);
              let hz =
                get_ok (Serve.Client.oneshot ~host ~port "GET" "/healthz")
              in
              Alcotest.(check bool) "healthz reports the open breaker" true
                (contains "\"ok\":false" hz.Serve.Client.body
                && contains "\"solver\":\"open\"" hz.Serve.Client.body));
          (* faults gone, cooldown over: the half-open probe heals it *)
          Thread.delay 0.4;
          let probe = post square in
          Alcotest.(check int) "probe request solves and closes" 200
            probe.Serve.Client.status;
          let hz = get_ok (Serve.Client.oneshot ~host ~port "GET" "/healthz") in
          Alcotest.(check bool) "healthz healthy again" true
            (contains "\"ok\":true" hz.Serve.Client.body
            && contains "\"solver\":\"closed\"" hz.Serve.Client.body);
          (* the episode is visible in /metrics *)
          let m = get_ok (Serve.Client.oneshot ~host ~port "GET" "/metrics") in
          Alcotest.(check bool) "breaker transitions exported" true
            (contains "hb_serve_breaker_solver_opened" m.Serve.Client.body
            && contains "hb_serve_breaker_solver_rejected" m.Serve.Client.body)))

(* Tentpole: a torn response (server writes a prefix then hard-closes)
   is recovered by the retrying client without the caller noticing. *)
let request_retry_survives_torn () =
  with_server (fun port ->
      with_faults "torn@serve.write:1" (fun () ->
          match
            Serve.Client.request_retry ~headers:[ hg_type ] ~body:triangle
              ~retries:3 ~base_delay:0.01 ~deadline:10.0 ~host ~port "POST"
              (decompose_target 2)
          with
          | Error m -> Alcotest.failf "retry client gave up: %s" m
          | Ok r ->
              Alcotest.(check int) "recovered after torn response" 200
                r.Serve.Client.status;
              Alcotest.(check bool) "full body arrived" true
                (contains "\"verdict\":\"yes\"" r.Serve.Client.body)))

(* Tentpole: the server enforces the client's advertised deadline. *)
let expired_deadline_504 () =
  with_server (fun port ->
      let r =
        get_ok
          (Serve.Client.oneshot ~host ~port
             ~headers:[ hg_type; ("X-HB-Deadline", "0") ]
             ~body:triangle "POST" (decompose_target 2))
      in
      Alcotest.(check int) "expired deadline refused" 504
        r.Serve.Client.status;
      (* a live deadline passes through *)
      let ok =
        get_ok
          (Serve.Client.oneshot ~host ~port
             ~headers:[ hg_type; ("X-HB-Deadline", "5.000") ]
             ~body:triangle "POST" (decompose_target 2))
      in
      Alcotest.(check int) "live deadline solves" 200 ok.Serve.Client.status)

(* --- HB_JOBS: one parser, loud on malformed values ---------------------- *)

let malformed_hb_jobs () =
  let saved = Sys.getenv_opt "HB_JOBS" in
  Fun.protect
    ~finally:(fun () ->
      (* No unsetenv: an unset knob means the recommended count, so put
         that back when there was nothing to restore. *)
      Unix.putenv "HB_JOBS"
        (match saved with
        | Some v -> v
        | None -> string_of_int (Domain.recommended_domain_count ())))
    (fun () ->
      List.iter
        (fun v ->
          Unix.putenv "HB_JOBS" v;
          let names_knob what f =
            match f () with
            | _ -> Alcotest.failf "HB_JOBS=%s: %s accepted it" v what
            | exception Invalid_argument m ->
                Alcotest.(check bool)
                  (Printf.sprintf "HB_JOBS=%s: %s names the knob" v what)
                  true
                  (String.length m >= 7 && String.sub m 0 7 = "HB_JOBS")
          in
          names_knob "Kit.Config.jobs" (fun () ->
              ignore (Kit.Config.jobs ()));
          names_knob "Serve.Server.default_config" (fun () ->
              ignore (Serve.Server.default_config ()));
          let err_rd, err_wr = Unix.pipe () in
          let pid =
            Unix.create_process exe [| exe; "serve"; "--port"; "0" |]
              Unix.stdin Unix.stdout err_wr
          in
          Unix.close err_wr;
          (* A daemon that accepted the value would keep running: give it
             10 s to fail, then kill it. *)
          (match Unix.select [ err_rd ] [] [] 10.0 with
          | [], _, _ ->
              Unix.kill pid Sys.sigkill;
              ignore (Unix.waitpid [] pid);
              Unix.close err_rd;
              Alcotest.failf "HB_JOBS=%s: serve started anyway" v
          | _ -> ());
          let ic = Unix.in_channel_of_descr err_rd in
          let line = try input_line ic with End_of_file -> "" in
          close_in ic;
          (match Unix.waitpid [] pid with
          | _, Unix.WEXITED 1 -> ()
          | _ -> Alcotest.failf "HB_JOBS=%s: serve did not exit 1" v);
          Alcotest.(check string)
            (Printf.sprintf "HB_JOBS=%s: serve diagnostic" v)
            (Printf.sprintf
               "hyperbench: HB_JOBS: expected an integer >= 1, got %S" v)
            line)
        [ "abc"; "0" ];
      Unix.putenv "HB_JOBS" "3";
      Alcotest.(check int) "server takes a valid HB_JOBS" 3
        (Serve.Server.default_config ()).Serve.Server.jobs)

(* Run the CLI with [name=value] in its environment; answer its exit
   code and its stderr. *)
let cli_with_env (name, value) args =
  let env =
    Array.append [| name ^ "=" ^ value |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:(name ^ "=") kv))
            (Array.to_list (Unix.environment ()))))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let err_rd, err_wr = Unix.pipe () in
  let pid =
    Unix.create_process_env exe (Array.append [| exe |] args) env Unix.stdin
      null err_wr
  in
  Unix.close null;
  Unix.close err_wr;
  let ic = Unix.in_channel_of_descr err_rd in
  let err = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED code -> (code, err)
  | _ -> Alcotest.failf "%s=%s: CLI killed by a signal" name value

let fuzz_one = [| "fuzz"; "--format"; "hg"; "--cases"; "1" |]

(* Every knob goes through Kit.Config.check before any command runs. *)
let malformed_knob_exits_1 () =
  List.iter
    (fun (name, value, expected) ->
      let code, err = cli_with_env (name, value) fuzz_one in
      Alcotest.(check int) (name ^ " exits 1") 1 code;
      Alcotest.(check string) (name ^ " diagnostic") expected
        (List.hd (String.split_on_char '\n' err)))
    [
      ( "HB_MEM_MB", "abc",
        "hyperbench: HB_MEM_MB: expected an integer >= 1, got \"abc\"" );
      ( "HB_ISOLATE", "true",
        "hyperbench: HB_ISOLATE: expected 0 or 1, got \"true\"" );
    ]

let unknown_knob_warns () =
  let code, err = cli_with_env ("HB_NO_SUCH_KNOB", "1") fuzz_one in
  Alcotest.(check int) "runs" 0 code;
  Alcotest.(check bool) "warning" true
    (List.mem "hyperbench: warning: unknown knob HB_NO_SUCH_KNOB"
       (String.split_on_char '\n' err))

let () =
  Alcotest.run "serve"
    [
      ( "routing",
        [
          Alcotest.test_case "healthz and metrics" `Quick healthz_and_metrics;
          Alcotest.test_case "decompose verdicts" `Quick decompose_verdicts;
          Alcotest.test_case "decompose errors" `Quick decompose_errors;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "keep-alive sequencing" `Quick
            keep_alive_sequencing;
          Alcotest.test_case "pipelining" `Quick pipelining;
          Alcotest.test_case "oversized bodies" `Quick oversized_bodies;
          Alcotest.test_case "malformed requests" `Quick malformed_requests;
          Alcotest.test_case "fuzz corpus (300 mangled requests)" `Slow
            fuzz_corpus;
        ] );
      ( "cache",
        [ Alcotest.test_case "end-to-end cache hit" `Quick cache_end_to_end ] );
      ( "leaks",
        [
          Alcotest.test_case "no fd leak across 1000 requests" `Slow
            fd_leak_loop;
          Alcotest.test_case "no worker leak under isolation" `Slow
            no_worker_leak_under_isolation;
        ] );
      ( "admission",
        [
          Alcotest.test_case "queue full answers 429" `Quick queue_full_429;
          Alcotest.test_case "per-client rate limit" `Quick rate_limit_429;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM finishes in-flight requests" `Slow
            sigterm_drain_finishes_in_flight;
          Alcotest.test_case "drain under chaos (stalled client)" `Slow
            drain_under_chaos;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "connect failures leak no fds" `Quick
            connect_failure_fd_loop;
          Alcotest.test_case "slowloris 408 on configured budget" `Quick
            slowloris_mid_read_408;
          Alcotest.test_case "retry-after estimate pins" `Quick
            retry_after_estimate_pins;
          Alcotest.test_case "breaker degrades and recovers" `Slow
            breaker_degrades_and_recovers;
          Alcotest.test_case "request_retry survives torn response" `Quick
            request_retry_survives_torn;
          Alcotest.test_case "expired client deadline answers 504" `Quick
            expired_deadline_504;
          Alcotest.test_case "malformed HB_JOBS is an error" `Quick
            malformed_hb_jobs;
          Alcotest.test_case "malformed knob exits 1" `Quick
            malformed_knob_exits_1;
          Alcotest.test_case "unknown knob only warns" `Quick
            unknown_knob_warns;
        ] );
    ]
