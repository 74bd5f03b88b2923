external setrlimit_mem : int -> bool = "hb_proc_setrlimit_mem"

(* --- fork hygiene for long-lived, multi-threaded hosts -----------------------

   A batch campaign calls [run] once from one thread, so the only fds a
   child could capture were the pipes of its own run's older siblings.
   A daemon is different: several threads each drive their own [run]
   concurrently, and every server socket is live at fork time. A child
   that inherits another run's task-pipe write end keeps that run's
   worker from ever seeing EOF — its shutdown then blocks in [waitpid]
   for as long as the foreign child lives — and a child that inherits a
   client connection keeps the socket half-open after the server closed
   it. The registry below records every parent-side fd that must not
   survive a fork (our own pipe ends, plus whatever the host registers:
   listeners, accepted connections), and every child closes the whole
   snapshot first thing. Pipe creation + fork + registration are
   serialised under one lock so no thread can fork in the window where
   another thread's fds exist but are not yet registered. *)

let fork_mu = Mutex.create ()
let fork_fds : (Unix.file_descr, unit) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock fork_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock fork_mu) f

let register_fork_fd fd = locked (fun () -> Hashtbl.replace fork_fds fd ())
let unregister_fork_fd fd = locked (fun () -> Hashtbl.remove fork_fds fd)

(* Child-side: close every registered fd except [keep]. Runs on the
   child's frozen snapshot of the table, before any other work. *)
let child_close_registered ~keep =
  Hashtbl.iter
    (fun fd () ->
      if not (List.memq fd keep) then
        try Unix.close fd with Unix.Unix_error _ -> ())
    fork_fds

(* SIGPIPE must be ignored while any run is live (a worker dying
   mid-dispatch surfaces as EPIPE, not a fatal signal). Concurrent runs
   share the disposition, so restore only when the last one leaves. *)
let sigpipe_depth = ref 0
let sigpipe_saved = ref None

let sigpipe_acquire () =
  locked (fun () ->
      if !sigpipe_depth = 0 then
        sigpipe_saved :=
          (try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
           with Invalid_argument _ | Sys_error _ -> None);
      incr sigpipe_depth)

let sigpipe_release () =
  locked (fun () ->
      decr sigpipe_depth;
      if !sigpipe_depth = 0 then (
        (match !sigpipe_saved with
        | Some h -> (
            try Sys.set_signal Sys.sigpipe h
            with Invalid_argument _ | Sys_error _ -> ())
        | None -> ());
        sigpipe_saved := None))

let default_wall = 3600.0

type 'b completion = { index : int; attempts : int; outcome : 'b Outcome.t }

let m_tasks = Metrics.counter "proc.tasks"
let m_watchdog = Metrics.counter "proc.watchdog_kills"
let m_oom = Metrics.counter "proc.hard_oom"
let m_crash = Metrics.counter "proc.worker_crashes"
let m_respawn = Metrics.counter "proc.respawns"

(* Worker exit codes with a reserved meaning. [exit_oom] is the child's
   last resort when even reporting an Out_of_memory in-band fails. *)
let exit_oom = 9
let exit_protocol = 7

(* --- framing -----------------------------------------------------------------

   Every value crossing a pipe travels as  magic | length | adler32 | payload
   (4 + 4 + 4 bytes of header). The checksum is what lets the parent tell a
   frame torn by a dying worker from a healthy result: a torn frame is a
   [Crash], never a misparse. *)

let magic = "HBF1"
let header_len = 12
let max_frame = 1 lsl 28

let adler32 s =
  let a = ref 1 and b = ref 0 in
  String.iter
    (fun c ->
      a := (!a + Char.code c) mod 65521;
      b := (!b + !a) mod 65521)
    s;
  (!b lsl 16) lor !a

let put32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (off + 3) (Char.chr (v land 0xFF))

let get32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame_of payload =
  let n = String.length payload in
  let b = Bytes.create (header_len + n) in
  Bytes.blit_string magic 0 b 0 4;
  put32 b 4 n;
  put32 b 8 (adler32 payload);
  Bytes.blit_string payload 0 b header_len n;
  b

let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | w -> write_all fd b (off + w) (len - w)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd b off len

let rec read_exact fd b off len =
  if len = 0 then true
  else
    match Unix.read fd b off len with
    | 0 -> false
    | r -> read_exact fd b (off + r) (len - r)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd b off len

exception Bad_frame

(* Blocking whole-frame read (child side; the child has nothing else to
   do while waiting for its next task). *)
let read_frame fd =
  let h = Bytes.create header_len in
  if not (read_exact fd h 0 header_len) then None
  else begin
    let h = Bytes.to_string h in
    if String.sub h 0 4 <> magic then raise Bad_frame;
    let len = get32 h 4 in
    if len < 0 || len > max_frame then raise Bad_frame;
    let p = Bytes.create len in
    if not (read_exact fd p 0 len) then raise Bad_frame;
    let p = Bytes.to_string p in
    if get32 h 8 <> adler32 p then raise Bad_frame;
    Some p
  end

(* --- worker child ------------------------------------------------------------ *)

(* Serve (index, attempt) requests forever. Exits via [Unix._exit] on
   every path — at_exit handlers and channel buffers belong to the
   parent and must not fire (or flush) a second time in the child. *)
let child_serve ~mem_mb ~task_rd ~res_wr f tasks =
  (match mem_mb with
  | Some mb when mb > 0 -> ignore (setrlimit_mem mb : bool)
  | _ -> ());
  let rec loop () =
    match read_frame task_rd with
    | None -> Unix._exit 0 (* parent closed the task pipe: clean shutdown *)
    | Some payload ->
        let i, attempt = (Marshal.from_string payload 0 : int * int) in
        (* The Guard boundary reports cooperative failures (timeouts,
           crashes, the soft memory alarm at the same budget as the hard
           rlimit) gracefully in-band; the watchdog and the rlimit only
           catch what escapes it. *)
        let outcome = Guard.run ?mem_mb (fun () -> f ~attempt tasks.(i)) in
        let resp =
          match Marshal.to_string (i, attempt, outcome) [] with
          | s -> s
          | exception Out_of_memory -> Unix._exit exit_oom
          | exception _ ->
              Marshal.to_string
                (i, attempt, (Outcome.Crash "unmarshallable worker result" : _ Outcome.t))
                []
        in
        let frame = frame_of resp in
        (match write_all res_wr frame 0 (Bytes.length frame) with
        | () -> ()
        | exception Out_of_memory -> Unix._exit exit_oom
        | exception _ -> Unix._exit exit_protocol);
        loop ()
  in
  try loop () with
  | Out_of_memory -> Unix._exit exit_oom
  | _ -> Unix._exit exit_protocol

(* --- parent monitor ----------------------------------------------------------- *)

type busy = { task_index : int; task_attempt : int; kill_at : float }

type state = Idle | Busy of busy

type worker = {
  pid : int;
  task_wr : Unix.file_descr;
  res_rd : Unix.file_descr;
  err_rd : Unix.file_descr;
  acc : Buffer.t;  (* partial result frames *)
  err_tail : Buffer.t;  (* last bytes of the worker's stderr *)
  mutable state : state;
  mutable killed : bool;  (* watchdog sent SIGKILL *)
}

let err_tail_cap = 4096

let trim_tail b =
  if Buffer.length b > 2 * err_tail_cap then begin
    let s = Buffer.sub b (Buffer.length b - err_tail_cap) err_tail_cap in
    Buffer.clear b;
    Buffer.add_string b s
  end

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "worker exited with code %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "worker killed by signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "worker stopped by signal %d" s

let run ?jobs ?mem_mb ?(retries = 0) ?halt_on ?on_done ?wall f tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let jobs =
      let j = match jobs with Some j -> j | None -> Config.jobs () in
      Stdlib.max 1 (Stdlib.min j n)
    in
    let mem_mb =
      match mem_mb with Some _ as m -> m | None -> Config.mem_mb ()
    in
    let wall =
      match wall with
      | Some w -> w
      | None ->
          let w = Option.value (Config.wall ()) ~default:default_wall in
          fun ~attempt:_ -> w
    in
    let results : 'b completion option array = Array.make n None in
    let completed = ref 0 in
    let halted = ref false in
    let queue = Queue.create () in
    for i = 0 to n - 1 do
      Queue.add (i, 0) queue
    done;
    (* Tasks whose dispatch write failed (worker died between frames):
       retried on a fresh worker a couple of times, then recorded. *)
    let dispatch_fails = Array.make n 0 in
    let workers = ref [] in
    let spawned = ref 0 in
    let finish i attempts outcome =
      match results.(i) with
      | Some _ -> ()
      | None ->
          let c = { index = i; attempts; outcome } in
          results.(i) <- Some c;
          incr completed;
          (match on_done with Some g -> g c | None -> ());
          (match halt_on with
          | Some p when p outcome -> halted := true
          | _ -> ())
    in
    let settle i attempt outcome =
      match outcome with
      | Outcome.Ok _ -> finish i (attempt + 1) outcome
      | _ when attempt < retries && not !halted ->
          Queue.add (i, attempt + 1) queue
      | _ -> finish i (attempt + 1) outcome
    in
    let spawn () =
      incr spawned;
      if !spawned > Stdlib.min jobs n then Metrics.incr m_respawn;
      (* Channel buffers must not be replayed by the child's writes.
         Flush before taking the fork lock — flushing contends on the
         channel locks, which another thread may hold for a while. *)
      flush stdout;
      flush stderr;
      Mutex.lock fork_mu;
      let task_rd, task_wr = Unix.pipe () in
      let res_rd, res_wr = Unix.pipe () in
      let err_rd, err_wr = Unix.pipe () in
      match
        try Unix.fork ()
        with e ->
          Mutex.unlock fork_mu;
          List.iter Unix.close
            [ task_rd; task_wr; res_rd; res_wr; err_rd; err_wr ];
          (match e with
          | Failure m ->
              (* OCaml 5 refuses fork permanently once any domain has ever
                 been spawned in the process; the isolated pass must run
                 before the first domain pool starts. *)
              failwith
                (m
               ^ " (Kit.Proc isolation must start before any domain pool \
                  has run in this process)")
          | e -> raise e)
      with
      | 0 ->
          Unix.close task_wr;
          Unix.close res_rd;
          Unix.close err_rd;
          (* Drop every registered parent-side fd: sibling pipes of this
             and every concurrent run (a surviving task-pipe copy would
             keep that worker from ever seeing EOF at shutdown) and the
             host's sockets (a long solve must not pin a client
             connection or the listener). *)
          child_close_registered ~keep:[];
          (try Unix.dup2 err_wr Unix.stderr with Unix.Unix_error _ -> ());
          Unix.close err_wr;
          child_serve ~mem_mb ~task_rd ~res_wr f tasks
      | pid ->
          Hashtbl.replace fork_fds task_wr ();
          Hashtbl.replace fork_fds res_rd ();
          Hashtbl.replace fork_fds err_rd ();
          Mutex.unlock fork_mu;
          Unix.close task_rd;
          Unix.close res_wr;
          Unix.close err_wr;
          Unix.set_nonblock res_rd;
          Unix.set_nonblock err_rd;
          let w =
            {
              pid;
              task_wr;
              res_rd;
              err_rd;
              acc = Buffer.create 256;
              err_tail = Buffer.create 256;
              state = Idle;
              killed = false;
            }
          in
          workers := w :: !workers;
          w
    in
    let drain_err w =
      let chunk = Bytes.create 4096 in
      let rec go () =
        match Unix.read w.err_rd chunk 0 4096 with
        | 0 -> ()
        | r ->
            Buffer.add_subbytes w.err_tail chunk 0 r;
            trim_tail w.err_tail;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error _ -> ()
      in
      go ()
    in
    (* Remove [w] from the pool and reap it; returns the exit status.
       [kill] first for workers that must die right now. *)
    let retire ?(kill = false) w =
      workers := List.filter (fun x -> x.pid <> w.pid) !workers;
      if kill then (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      drain_err w;
      List.iter unregister_fork_fd [ w.task_wr; w.res_rd; w.err_rd ];
      (try Unix.close w.task_wr with Unix.Unix_error _ -> ());
      (try Unix.close w.res_rd with Unix.Unix_error _ -> ());
      (try Unix.close w.err_rd with Unix.Unix_error _ -> ());
      match Unix.waitpid [] w.pid with
      | _, status -> status
      | exception Unix.Unix_error _ -> Unix.WEXITED 0
    in
    (* A worker died on its own (EOF / torn frame / EPIPE on dispatch):
       map its exit status onto the outcome taxonomy. *)
    let death_outcome w status =
      if w.killed then begin
        Metrics.incr m_watchdog;
        Outcome.Timeout
      end
      else
        match status with
        | Unix.WSIGNALED s when s = Sys.sigkill ->
            (* Not our kill: the kernel OOM-killer's. *)
            Metrics.incr m_oom;
            Outcome.Out_of_memory
        | Unix.WEXITED c when c = exit_oom ->
            Metrics.incr m_oom;
            Outcome.Out_of_memory
        | status ->
            Metrics.incr m_crash;
            let tail = String.trim (Buffer.contents w.err_tail) in
            Outcome.Crash
              (if tail = "" then describe_status status
               else describe_status status ^ "\n" ^ tail)
    in
    let worker_died w =
      let status = retire w in
      match w.state with
      | Busy b -> settle b.task_index b.task_attempt (death_outcome w status)
      | Idle -> ()
    in
    let dispatch w (i, attempt) =
      let payload = Marshal.to_string (i, attempt) [] in
      let frame = frame_of payload in
      match write_all w.task_wr frame 0 (Bytes.length frame) with
      | () ->
          w.state <-
            Busy
              {
                task_index = i;
                task_attempt = attempt;
                kill_at = Unix.gettimeofday () +. wall ~attempt;
              };
          Metrics.incr m_tasks;
          true
      | exception Unix.Unix_error _ ->
          (* The worker died between tasks. Give the task a fresh worker
             (twice), then record the crash. *)
          worker_died w;
          dispatch_fails.(i) <- dispatch_fails.(i) + 1;
          if dispatch_fails.(i) > 2 then
            finish i attempt
              (Outcome.Crash "worker died before accepting the task")
          else Queue.add (i, attempt) queue;
          false
    in
    (* Deliver every complete frame sitting in [w.acc]; false on a
       corrupt frame (the worker is no longer trustworthy). *)
    let deliver_frames w =
      let ok = ref true in
      let continue = ref true in
      while !continue && !ok do
        continue := false;
        let len = Buffer.length w.acc in
        if len >= header_len then begin
          let s = Buffer.contents w.acc in
          if String.sub s 0 4 <> magic then ok := false
          else
            let plen = get32 s 4 in
            if plen < 0 || plen > max_frame then ok := false
            else if len >= header_len + plen then begin
              let payload = String.sub s header_len plen in
              if get32 s 8 <> adler32 payload then ok := false
              else begin
                Buffer.clear w.acc;
                Buffer.add_substring w.acc s (header_len + plen)
                  (len - header_len - plen);
                match
                  (Marshal.from_string payload 0 : int * int * 'b Outcome.t)
                with
                | i, attempt, outcome -> (
                    match w.state with
                    | Busy b
                      when b.task_index = i && b.task_attempt = attempt ->
                        w.state <- Idle;
                        settle i attempt outcome;
                        continue := true
                    | _ -> ok := false)
                | exception _ -> ok := false
              end
            end
        end
      done;
      !ok
    in
    let handle_readable w =
      drain_err w;
      let chunk = Bytes.create 65536 in
      let dead = ref false in
      let rec rd () =
        match Unix.read w.res_rd chunk 0 65536 with
        | 0 -> dead := true
        | r ->
            Buffer.add_subbytes w.acc chunk 0 r;
            rd ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> rd ()
        | exception Unix.Unix_error _ -> dead := true
      in
      rd ();
      let frames_ok = deliver_frames w in
      if not frames_ok then begin
        (* Corrupt stream: kill and classify as a crash (unless the
           watchdog already owned this worker). *)
        let status = retire ~kill:true w in
        match w.state with
        | Busy b ->
            let outcome =
              if w.killed then death_outcome w status
              else begin
                Metrics.incr m_crash;
                let tail = String.trim (Buffer.contents w.err_tail) in
                Outcome.Crash
                  (if tail = "" then "torn result frame"
                   else "torn result frame\n" ^ tail)
              end
            in
            settle b.task_index b.task_attempt outcome
        | Idle -> ()
      end
      else if !dead then worker_died w
    in
    let watchdog_pass now =
      List.iter
        (fun w ->
          match w.state with
          | Busy b when now >= b.kill_at ->
              w.killed <- true;
              Metrics.incr m_watchdog;
              (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (retire w : Unix.process_status);
              settle b.task_index b.task_attempt Outcome.Timeout
          | _ -> ())
        (* retire mutates [workers]; iterate over a snapshot *)
        (List.filter (fun _ -> true) !workers)
    in
    let shutdown () =
      (* Closing every task pipe first lets the EOF cascade reach all
         children whatever fd copies the younger siblings inherited. *)
      List.iter
        (fun w ->
          if w.state <> Idle then
            try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
        !workers;
      List.iter
        (fun w ->
          unregister_fork_fd w.task_wr;
          try Unix.close w.task_wr with Unix.Unix_error _ -> ())
        !workers;
      List.iter
        (fun w ->
          drain_err w;
          List.iter unregister_fork_fd [ w.res_rd; w.err_rd ];
          (try Unix.close w.res_rd with Unix.Unix_error _ -> ());
          (try Unix.close w.err_rd with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ())
        !workers;
      workers := []
    in
    (* A worker dying mid-dispatch must surface as EPIPE, not kill the
       campaign process; concurrent runs share the disposition. *)
    sigpipe_acquire ();
    Fun.protect
      ~finally:(fun () ->
        shutdown ();
        sigpipe_release ())
      (fun () ->
        while !completed < n && not !halted do
          (* Keep the pool at strength: one worker per queued task, up
             to [jobs]. Respawns after a kill are counted. *)
          let live = List.length !workers in
          let idle =
            List.length (List.filter (fun w -> w.state = Idle) !workers)
          in
          let want =
            Stdlib.min jobs (live - idle + Queue.length queue) - live
          in
          for _ = 1 to want do
            ignore (spawn () : worker)
          done;
          (* Dispatch queued work to idle workers. *)
          let rec feed () =
            if (not (Queue.is_empty queue)) && not !halted then
              match List.find_opt (fun w -> w.state = Idle) !workers with
              | Some w ->
                  ignore (dispatch w (Queue.pop queue) : bool);
                  feed ()
              | None -> ()
          in
          feed ();
          if !completed < n && not !halted then begin
            let now = Unix.gettimeofday () in
            let timeout =
              List.fold_left
                (fun acc w ->
                  match w.state with
                  | Busy b -> Stdlib.min acc (b.kill_at -. now)
                  | Idle -> acc)
                1.0 !workers
            in
            let timeout = Stdlib.max 0.0 (Stdlib.min timeout 1.0) in
            let fds =
              List.concat_map (fun w -> [ w.res_rd; w.err_rd ]) !workers
            in
            let readable =
              match Unix.select fds [] [] timeout with
              | r, _, _ -> r
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
            in
            (* A handler may retire workers mid-iteration; skip any
               snapshot entry no longer in the live pool. *)
            List.iter
              (fun w ->
                if List.memq w !workers then begin
                  if List.memq w.err_rd readable then drain_err w;
                  if List.memq w.res_rd readable then handle_readable w
                end)
              (List.filter (fun _ -> true) !workers);
            watchdog_pass (Unix.gettimeofday ())
          end
        done;
        if !halted then begin
          (* Race decided: hard-kill every busy loser right now and
             record the casualties as timeouts. *)
          List.iter
            (fun w ->
              match w.state with
              | Busy b ->
                  w.killed <- true;
                  ignore (retire ~kill:true w : Unix.process_status);
                  finish b.task_index (b.task_attempt + 1) Outcome.Timeout
              | Idle -> ())
            (List.filter (fun _ -> true) !workers);
          Queue.iter (fun (i, attempt) -> finish i attempt Outcome.Timeout) queue;
          Queue.clear queue
        end;
        Array.mapi
          (fun i c ->
            match c with
            | Some c -> c
            | None -> { index = i; attempts = 0; outcome = Outcome.Timeout })
          results)
  end

let outcomes ?jobs ?mem_mb ?wall f tasks =
  let wall = Option.map (fun w ~attempt:_ -> w) wall in
  Array.map
    (fun c -> c.outcome)
    (run ?jobs ?mem_mb ?wall (fun ~attempt:_ x -> f x) tasks)
