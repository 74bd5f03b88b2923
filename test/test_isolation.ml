(* Tests for the process-level hard-isolation layer (Kit.Proc): worker
   pool mechanics, watchdog kills, memory caps, crash capture, retries,
   and races. Campaign-level isolation coverage lives further down. *)

module Proc = Kit.Proc
module Outcome = Kit.Outcome

let label_of = function
  | Outcome.Ok _ -> "ok"
  | o -> Outcome.label o

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let labels cs = Array.to_list (Array.map (fun c -> label_of c.Proc.outcome) cs)

(* --- Proc unit tests --------------------------------------------------- *)

let proc_ordered_results () =
  let tasks = Array.init 17 (fun i -> i) in
  let cs = Proc.run ~jobs:4 ~mem_mb:0 (fun ~attempt:_ x -> x * x) tasks in
  Alcotest.(check int) "one completion per task" 17 (Array.length cs);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) "indexed in input order" i c.Proc.index;
      Alcotest.(check int) "single attempt" 1 c.Proc.attempts;
      match c.Proc.outcome with
      | Outcome.Ok v -> Alcotest.(check int) "square" (i * i) v
      | o -> Alcotest.failf "task %d: expected ok, got %s" i (Outcome.label o))
    cs

let proc_watchdog_kills_hang () =
  let tasks = [| `Fine; `Hang; `Fine |] in
  let t0 = Unix.gettimeofday () in
  let cs =
    Proc.run ~jobs:3 ~mem_mb:0
      ~wall:(fun ~attempt:_ -> 0.4)
      (fun ~attempt:_ -> function
        | `Fine -> 1
        | `Hang ->
            (* Never polls a deadline: only the watchdog can stop it. *)
            let rec spin x = spin (Sys.opaque_identity (x lxor 1)) in
            spin 0)
      tasks
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list string))
    "hang killed, siblings fine" [ "ok"; "timeout"; "ok" ] (labels cs);
  Alcotest.(check bool)
    (Printf.sprintf "killed near the wall budget (%.2fs)" elapsed)
    true (elapsed < 5.0)

let proc_hard_memory_cap () =
  let tasks = [| `Greedy; `Modest |] in
  let cs =
    Proc.run ~jobs:2 ~mem_mb:64
      (fun ~attempt:_ -> function
        | `Modest -> 0
        | `Greedy ->
            (* Outgrow the cap no matter how the Gc behaves: keep every
               chunk reachable. *)
            let keep = ref [] in
            for _ = 1 to 1024 do
              keep := Bytes.create (8 * 1024 * 1024) :: !keep
            done;
            List.length !keep)
      tasks
  in
  Alcotest.(check (list string))
    "greedy capped, sibling untouched" [ "out_of_memory"; "ok" ] (labels cs)

let proc_crash_captures_stderr () =
  let tasks = [| `Die; `Fine |] in
  let cs =
    Proc.run ~jobs:2 ~mem_mb:0
      (fun ~attempt:_ -> function
        | `Fine -> 0
        | `Die ->
            prerr_string "separator stack exploded";
            flush stderr;
            Unix._exit 3)
      tasks
  in
  (match cs.(0).Proc.outcome with
  | Outcome.Crash msg ->
      Alcotest.(check bool)
        "exit code in message" true
        (contains ~sub:"code 3" msg);
      Alcotest.(check bool)
        "stderr tail captured" true
        (contains ~sub:"separator stack exploded" msg)
  | o -> Alcotest.failf "expected crash, got %s" (Outcome.label o));
  Alcotest.(check string) "sibling fine" "ok" (label_of cs.(1).Proc.outcome)

let proc_inband_exception () =
  let cs =
    Proc.run ~jobs:1 ~mem_mb:0
      (fun ~attempt:_ () -> failwith "solver exploded")
      [| () |]
  in
  match cs.(0).Proc.outcome with
  | Outcome.Crash msg ->
      Alcotest.(check bool)
        "carries the exception" true
        (contains ~sub:"solver exploded" msg)
  | o -> Alcotest.failf "expected crash, got %s" (Outcome.label o)

let proc_retries_rerun_task () =
  let cs =
    Proc.run ~jobs:2 ~mem_mb:0 ~retries:2
      (fun ~attempt x ->
        if attempt < x then failwith "flaky" else x * 10)
      [| 0; 2 |]
  in
  Alcotest.(check (list string)) "both recover" [ "ok"; "ok" ] (labels cs);
  Alcotest.(check int) "steady task: one attempt" 1 cs.(0).Proc.attempts;
  Alcotest.(check int) "flaky task: three attempts" 3 cs.(1).Proc.attempts;
  (match cs.(1).Proc.outcome with
  | Outcome.Ok v -> Alcotest.(check int) "final attempt's value" 20 v
  | o -> Alcotest.failf "expected ok, got %s" (Outcome.label o));
  (* Exhausted retries keep the last failure. *)
  let cs =
    Proc.run ~jobs:1 ~mem_mb:0 ~retries:1
      (fun ~attempt:_ () -> failwith "always")
      [| () |]
  in
  Alcotest.(check string) "still a crash" "crash" (label_of cs.(0).Proc.outcome);
  Alcotest.(check int) "both attempts consumed" 2 cs.(0).Proc.attempts

let proc_halt_on_race () =
  let tasks = [| `Hang; `Fast; `Hang |] in
  let t0 = Unix.gettimeofday () in
  let cs =
    Proc.run ~jobs:3 ~mem_mb:0
      ~wall:(fun ~attempt:_ -> 60.0)
      ~halt_on:(function Outcome.Ok _ -> true | _ -> false)
      (fun ~attempt:_ -> function
        | `Fast -> 42
        | `Hang ->
            let rec spin x = spin (Sys.opaque_identity (x lxor 1)) in
            spin 0)
      tasks
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list string))
    "winner ok, losers hard-killed" [ "timeout"; "ok"; "timeout" ] (labels cs);
  Alcotest.(check bool)
    (Printf.sprintf "race settled promptly (%.2fs)" elapsed)
    true (elapsed < 10.0)

let proc_worker_reuse () =
  (* Many more tasks than jobs: the pool must recycle workers rather
     than fork one per task. *)
  let cs =
    Proc.run ~jobs:2 ~mem_mb:0
      (fun ~attempt:_ x -> (x, Unix.getpid ()))
      (Array.init 12 (fun i -> i))
  in
  let pids =
    Array.to_list cs
    |> List.filter_map (fun c ->
           match c.Proc.outcome with
           | Outcome.Ok (_, pid) -> Some pid
           | _ -> None)
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "all tasks completed" 12 (Array.length cs);
  Alcotest.(check bool)
    (Printf.sprintf "at most 2 worker processes (saw %d)" (List.length pids))
    true
    (List.length pids <= 2)

(* --- campaign-level isolation ------------------------------------------ *)

module B = Benchlib

let seed = 7
let scale = 0.05
let max_k = 4
let fuel_budget () = Kit.Deadline.of_fuel 20_000

let build () = B.Repository.build ~seed ~scale ()

let with_faults spec f =
  (match Kit.Fault.configure spec with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Fun.protect ~finally:Kit.Fault.clear f

(* The budget- and jobs-independent skeleton of a record (as in
   test_resilience): everything except measured seconds. *)
let skeleton (r : B.Analysis.record) =
  ( r.B.Analysis.instance.B.Instance.name,
    r.B.Analysis.profile,
    List.map (fun (x : B.Analysis.hw_run) -> (x.k, x.outcome)) r.B.Analysis.hw_runs,
    r.B.Analysis.hw,
    r.B.Analysis.hd <> None,
    r.B.Analysis.stats.Kit.Metrics.counters )

let campaign ?journal ?mem_mb ?wall ~jobs () =
  match
    Experiments.prepare_campaign ~seed ~scale ~budget:fuel_budget ~max_k ~jobs
      ~isolate:true ?wall ?mem_mb ?journal ()
  with
  | Ok c -> c
  | Error m -> Alcotest.fail m

(* OCaml 5 refuses Unix.fork permanently once a process has ever spawned
   a domain, and each campaign's ghd/fractional passes run on a domain
   pool at jobs > 1 — so every campaign test gets a fresh forked process
   of its own, keeping the alcotest runner itself domain-free (and so
   fork-capable) throughout. Alcotest failures inside the child surface
   as a nonzero exit; its stderr shares ours, so the detail lands in the
   test log. *)
let in_subprocess f () =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      let code =
        try
          f ();
          0
        with e ->
          Printf.eprintf "%s\n%!" (Printexc.to_string e);
          1
      in
      Unix._exit code
  | pid -> (
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, Unix.WEXITED n ->
          Alcotest.failf "campaign subprocess failed (exit %d, see log)" n
      | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
          Alcotest.failf "campaign subprocess killed by signal %d" s)

let with_journal f =
  let path = Filename.temp_file "hb_isolation" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists path then Sys.remove path;
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))
    (fun () -> f path)

let journal_outcome ~path name =
  match Experiments.Journal.read ~path with
  | Error m -> Alcotest.fail m
  | Ok { Experiments.Journal.entries; _ } ->
      List.find_map
        (fun e ->
          match (Kit.Json.member "instance" e, Kit.Json.member "outcome" e) with
          | Some i, Some o when Kit.Json.string_value i = Some name ->
              Kit.Json.string_value o
          | _ -> None)
        entries

(* The acceptance scenario: a seeded hang@instance fault — a busy-loop
   that never polls Deadline — is hard-killed at the wall budget under
   isolation and journaled as timeout, while every surviving instance
   stays bit-identical (under fuel) to the fault-free run, at jobs 1
   and 4. *)
let isolated_campaign_contains_hang () =
  let victim = (List.nth (build ()) 5).B.Instance.name in
  let baseline = campaign ~jobs:1 () in
  List.iter
    (fun (t : B.Analysis.task) ->
      Alcotest.(check bool) "fault-free isolated run is all ok" true
        (Kit.Outcome.is_ok t.B.Analysis.result))
    baseline.Experiments.tasks;
  List.iter
    (fun jobs ->
      with_journal @@ fun path ->
      let c =
        with_faults
          (Printf.sprintf "hang@instance.%s:1" victim)
          (fun () ->
            campaign ~journal:path ~wall:(fun ~attempt:_ -> 2.0) ~jobs ())
      in
      List.iter2
        (fun (b : B.Analysis.task) (t : B.Analysis.task) ->
          let name = t.B.Analysis.task_instance.B.Instance.name in
          if name = victim then
            Alcotest.(check string)
              (Printf.sprintf "%s hard-killed (jobs=%d)" name jobs)
              "timeout"
              (Kit.Outcome.label t.B.Analysis.result)
          else
            match (b.B.Analysis.result, t.B.Analysis.result) with
            | Kit.Outcome.Ok rb, Kit.Outcome.Ok rt ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s identical to fault-free run (jobs=%d)"
                     name jobs)
                  true
                  (skeleton rb = skeleton rt)
            | _, o ->
                Alcotest.failf "%s: expected ok, got %s" name
                  (Kit.Outcome.label o))
        baseline.Experiments.tasks c.Experiments.tasks;
      Alcotest.(check (option string))
        (Printf.sprintf "journaled as timeout (jobs=%d)" jobs)
        (Some "timeout")
        (journal_outcome ~path victim))
    [ 1; 4 ]

(* A worker blowing its memory budget is journaled as out_of_memory and
   its siblings finish undisturbed. *)
let isolated_campaign_journals_oom () =
  let victim = (List.nth (build ()) 20).B.Instance.name in
  with_journal @@ fun path ->
  let c =
    with_faults
      (Printf.sprintf "oom@instance.%s:1" victim)
      (fun () -> campaign ~journal:path ~mem_mb:256 ~jobs:2 ())
  in
  List.iter
    (fun (t : B.Analysis.task) ->
      let name = t.B.Analysis.task_instance.B.Instance.name in
      if name = victim then
        Alcotest.(check string) "victim out of memory" "out_of_memory"
          (Kit.Outcome.label t.B.Analysis.result)
      else
        Alcotest.(check bool) (name ^ " undisturbed") true
          (Kit.Outcome.is_ok t.B.Analysis.result))
    c.Experiments.tasks;
  Alcotest.(check (option string))
    "journaled as out_of_memory" (Some "out_of_memory")
    (journal_outcome ~path victim)

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The test binary lives in _build/default/test/; the CLI is its
   sibling at _build/default/bin/ (a declared dune dep). *)
let exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "bin/hyperbench.exe"

(* The CLI's one isolation switch: [campaign --isolate] hard-kills a
   hang@instance fault at HB_WALL and reports it as the campaign's only
   timeout. The child gets a process group of its own, so that a broken
   watchdog fails the test at [limit] instead of hanging it. *)
let cli_isolate_contains_hang () =
  let out = Filename.temp_file "hb_iso" ".out" in
  let env =
    Array.append
      [| "HB_WALL=2"; "HB_FAULT=hang@instance.cq-rand-001:1" |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"HB_" kv))
            (Array.to_list (Unix.environment ()))))
  in
  let args =
    [| exe; "campaign"; "--isolate"; "--scale"; "0.1"; "--fuel"; "20000";
       "-j"; "2" |]
  in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  flush stdout;
  flush stderr;
  let pid =
    match Unix.fork () with
    | 0 -> (
        try
          ignore (Unix.setsid ());
          let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
          Unix.dup2 fd Unix.stdout;
          Unix.close fd;
          Unix.execve exe args env
        with _ -> Unix._exit 127)
    | pid -> pid
  in
  let limit = 30.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () -. t0 < limit ->
        Unix.sleepf 0.05;
        wait ()
    | 0, _ ->
        Unix.kill (-pid) Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "campaign --isolate still running after %.0fs" limit
    | _, status -> status
  in
  let status = wait () in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "exits 0" true (status = Unix.WEXITED 0);
  let summary = read_whole out in
  Alcotest.(check bool)
    ("exactly one timeout:\n" ^ summary)
    true
    (contains ~sub:"| timeout 1 |" summary
    && contains ~sub:"cq-rand-001: timeout after 1 attempt(s)" summary);
  Alcotest.(check bool)
    (Printf.sprintf "killed near HB_WALL (%.2fs)" elapsed)
    true (elapsed < 15.0)

(* --- machine-readable stdout ------------------------------------------- *)

(* --stats-json -: stdout must carry exactly one JSON document; all the
   human-facing chatter (a campaign's tables included) moves to
   stderr. The counters describe the analysis the tables show, so
   --tables (whose ablation re-solves instances) leaves them as they are
   without it. *)
let stats_json_stdout_is_parseable () =
  let hg = Filename.temp_file "hb_iso" ".hg" in
  let out = Filename.temp_file "hb_iso" ".out" in
  let err = Filename.temp_file "hb_iso" ".err" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> if Sys.file_exists f then Sys.remove f)
        [ hg; out; err ])
    (fun () ->
      let oc = open_out hg in
      output_string oc "e1(a,b,c),\ne2(c,d),\ne3(d,e,a).\n";
      close_out oc;
      let counters =
        List.map
          (fun (what, args, chatter) ->
            let cmd =
              Printf.sprintf "%s %s --stats-json - >%s 2>%s"
                (Filename.quote exe) args (Filename.quote out)
                (Filename.quote err)
            in
            Alcotest.(check int) (what ^ " exits 0") 0 (Sys.command cmd);
            let counters =
              match Kit.Json.of_string (String.trim (read_whole out)) with
              | Ok (Kit.Json.Obj _ as j) -> Kit.Json.member "counters" j
              | Ok _ -> Alcotest.failf "%s: stdout JSON is not an object" what
              | Error m ->
                  Alcotest.failf
                    "%s: stdout is not machine-parseable: %s\n---\n%s" what m
                    (read_whole out)
            in
            Alcotest.(check bool) (what ^ ": chatter routed to stderr") true
              (contains ~sub:chatter (read_whole err));
            Option.map Kit.Json.to_string counters)
          [
            ( "analyze",
              Printf.sprintf "analyze %s --max-k 3" (Filename.quote hg),
              "hw = " );
            ( "campaign",
              "campaign --scale 0.05 --fuel 2000 --tables",
              "Ablation: design choices" );
            ("campaign without --tables", "campaign --scale 0.05 --fuel 2000",
             "Campaign summary");
          ]
      in
      match counters with
      | [ _; Some with_tables; Some without ] ->
          Alcotest.(check string) "--tables leaves the counters" without
            with_tables
      | _ -> Alcotest.fail "campaign JSON has no counters")

let () =
  Alcotest.run "isolation"
    [
      ( "proc",
        [
          Alcotest.test_case "ordered results" `Quick proc_ordered_results;
          Alcotest.test_case "watchdog kills hang" `Quick
            proc_watchdog_kills_hang;
          Alcotest.test_case "hard memory cap" `Quick proc_hard_memory_cap;
          Alcotest.test_case "crash captures stderr" `Quick
            proc_crash_captures_stderr;
          Alcotest.test_case "in-band exception" `Quick proc_inband_exception;
          Alcotest.test_case "retries rerun task" `Quick
            proc_retries_rerun_task;
          Alcotest.test_case "halt_on race" `Quick proc_halt_on_race;
          Alcotest.test_case "worker reuse" `Quick proc_worker_reuse;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "hang is contained and journaled" `Slow
            (in_subprocess isolated_campaign_contains_hang);
          Alcotest.test_case "oom is journaled, siblings undisturbed" `Slow
            (in_subprocess isolated_campaign_journals_oom);
          Alcotest.test_case "--isolate contains a hang (CLI)" `Slow
            cli_isolate_contains_hang;
        ] );
      ( "stdout",
        [
          Alcotest.test_case "--stats-json - is machine-parseable" `Quick
            stats_json_stdout_is_parseable;
        ] );
    ]
