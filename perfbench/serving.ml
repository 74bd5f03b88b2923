(* The [serve-hit] workload: an open loop at a fixed offered rate
   against [hyperbench serve], run as its own process with HB_JOBS=2,
   posting hypergraphs to the hd width ladder under a fixed fuel budget.

   Set-up warms a fresh daemon: every body is new to it (distinct
   fingerprints, empty result cache), so each ladder level is a cache
   miss, a det-k search and a cache store. The measured requests then
   draw from the warmed bodies that got a definitive verdict, so each
   one is parse + fingerprint + cache lookup (disk read, witness parse,
   HD check) + encoding, with no search.

   Load comes from this process only: two threads, each with one
   keep-alive connection. Request i is due at t0 + i/rate; its latency
   is measured from that due time, so a stall also charges the requests
   queued behind it. *)

open Bstat

let fuel = 50_000
let target = Printf.sprintf "/decompose?fuel=%d" fuel
let host = "127.0.0.1"
let scale = 6.25
let threads = 2

(* ---- bodies ----------------------------------------------------------- *)

type fmt = Hg_text | Hg_binary | Sql | Xcsp

let fmt_name = function
  | Hg_text -> "hg" | Hg_binary -> "hbx" | Sql -> "sql" | Xcsp -> "xcsp"

let content_type = function
  | Hg_text -> "application/x-hyperbench"
  | Hg_binary -> "application/x-hyperbench-binary"
  | Sql -> "application/sql"
  | Xcsp -> "application/xml"

type body = {
  fmt : fmt;
  payload : string;
  hg : Hg.Hypergraph.t option;  (* what the daemon should parse *)
  fp : string;
}

(* The same public call the daemon makes for each content type. *)
let parse fmt payload =
  match fmt with
  | Hg_text -> Result.to_option (Hg.Hypergraph.parse_report payload)
  | Hg_binary -> Result.to_option (Hg.Binary.of_string_report payload)
  | Xcsp -> Result.to_option (Xcsp3.Xcsp.read_report payload)
  | Sql -> (
      match Sql.Convert.sql_to_hypergraphs_report payload with
      | Error _ -> None
      | Ok convs -> List.find_map (fun (_, c) -> c.Sql.Convert.hypergraph) convs)

let is_sql_source s = s = "tpch" || s = "tpcds" || s = "job"

(* Bodies follow each instance's source: CQs as HG text or packed
   binary (a seeded coin), CSPs as XCSP3, and the embedded TPC-H /
   TPC-DS / JOB query texts as SQL. The instances are the library's
   default repository at a fixed scale, like the campaign's; the seed
   picks the formats and the order. Deduplicated by the fingerprint of
   what the daemon will parse. *)
let bodies ~seed =
  let rng = Kit.Rng.create seed in
  let insts = Benchlib.Repository.build ~scale () in
  let of_instance (i : Benchlib.Instance.t) =
    match i.group with
    | _ when is_sql_source i.source -> None
    | Benchlib.Group.CQ_application | Benchlib.Group.CQ_random ->
        if Kit.Rng.bool rng then Some (Hg_text, Hg.Hypergraph.to_string i.hg)
        else Some (Hg_binary, Hg.Binary.to_string i.hg)
    | Benchlib.Group.CSP_application | Benchlib.Group.CSP_random
    | Benchlib.Group.CSP_other ->
        Some (Xcsp, Xcsp3.Xcsp.to_xml ~name:i.name i.hg)
  in
  let sql =
    List.concat_map
      (fun qs -> List.map (fun (_, text) -> (Sql, text)) qs)
      Gen.Workloads.[ tpch_queries; tpcds_queries; job_queries ]
  in
  let seen = Hashtbl.create 1024 in
  let pool =
    List.filter_map
      (fun (fmt, payload) ->
        let hg = parse fmt payload in
        let fp =
          match hg with
          | Some h -> Hg.Hypergraph.fingerprint h
          | None -> "unparsed:" ^ Digest.to_hex (Digest.string payload)
        in
        if Hashtbl.mem seen fp then None
        else begin
          Hashtbl.replace seen fp ();
          Some { fmt; payload; hg; fp }
        end)
      (List.filter_map of_instance insts @ sql)
    |> Array.of_list
  in
  Kit.Rng.shuffle rng pool;
  pool

(* ---- the daemon --------------------------------------------------------- *)

type daemon = { pid : int; port : int; out : in_channel; setup_s : float }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let get ~port path =
  match Serve.Client.oneshot ~timeout:5. ~host ~port "GET" path with
  | Ok r when r.Serve.Client.status = 200 -> Some r.Serve.Client.body
  | Ok _ | Error _ -> None

(* Spawn [hyperbench serve] on an ephemeral port with an empty cache
   directory; set-up time runs from spawn to the first /healthz 200. *)
let spawn ~exe ~cache_dir =
  rm_rf cache_dir;
  Unix.mkdir cache_dir 0o755;
  let env =
    Array.append [| "HB_JOBS=" ^ string_of_int threads |]
      (Array.of_list
         (List.filter
            (fun kv -> not (String.length kv > 3 && String.sub kv 0 3 = "HB_"))
            (Array.to_list (Unix.environment ()))))
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--port"; "0"; "--rate"; "0"; "--cache"; cache_dir |]
      env Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let line = try input_line out with End_of_file -> "" in
  let port =
    match String.rindex_opt line ':' with
    | Some i -> int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
    | None -> None
  in
  let abandon msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    close_in_noerr out;
    failwith msg
  in
  match port with
  | None -> abandon ("daemon did not start: " ^ String.escaped line)
  | Some port ->
      let rec wait n =
        if get ~port "/healthz" <> None then { pid; port; out; setup_s = now () -. t0 }
        else if n = 0 then abandon "daemon never answered /healthz"
        else (Unix.sleepf 0.002; wait (n - 1))
      in
      wait 5000

let stop d =
  let rss = peak_rss_mb (string_of_int d.pid) in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  close_in_noerr d.out;
  rss

(* Counters from the daemon's /metrics, where a counter "a.b" is
   exported as "hb_a_b". *)
let scrape d =
  match get ~port:d.port "/metrics" with
  | None -> failwith "daemon /metrics unavailable"
  | Some text ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] when l <> "" && l.[0] <> '#' ->
              Option.map (fun v -> (k, v)) (int_of_string_opt v)
          | _ -> None)
        (String.split_on_char '\n' text)

let counter scrape name =
  let key = "hb_" ^ String.map (function '.' -> '_' | c -> c) name in
  Option.value ~default:0 (List.assoc_opt key scrape)

let delta before after name = counter after name - counter before name

(* ---- load --------------------------------------------------------------- *)

type res = {
  b : int;  (* index into the body pool *)
  due : float;
  sent : float;
  fin : float;
  status : int;  (* 0 = transport error *)
  resp : string;
  handler_s : float;  (* X-HB-Seconds *)
  cache : string;  (* X-HB-Cache *)
}

let latency_ms r = (r.fin -. r.due) *. 1000.
let late_ms r = (r.sent -. r.due) *. 1000.

(* Send [seq] (pool indices) over [threads] keep-alive connections.
   [rate] > 0 is an open loop; [rate] = 0 a closed loop, where each
   request is due when its connection frees up. *)
let load ?(parent = 0) ~pool ~port ~rate seq =
  let n = Array.length seq in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let t0 = now () +. 0.01 in
  let worker () =
    let conn = ref None in
    let close () =
      Option.iter Serve.Client.close !conn;
      conn := None
    in
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let due = if rate > 0. then t0 +. (float_of_int i /. rate) else now () in
        let wait = due -. now () in
        if wait > 0. then Unix.sleepf wait;
        let body = pool.(seq.(i)) in
        let sent = now () in
        let r =
          match
            let c =
              match !conn with
              | Some c -> c
              | None ->
                  let c = Serve.Client.connect ~host ~port () in
                  conn := Some c;
                  c
            in
            Serve.Client.request c
              ~headers:[ ("Content-Type", content_type body.fmt) ]
              ~body:body.payload "POST" target
          with
          | r -> r
          | exception e -> Error (Printexc.to_string e)
        in
        let fin = now () in
        let res =
          match r with
          | Ok r ->
              let h k = List.assoc_opt k r.Serve.Client.headers in
              { b = seq.(i); due; sent; fin; status = r.Serve.Client.status;
                resp = r.Serve.Client.body;
                handler_s =
                  Option.value ~default:0.
                    (Option.bind (h "x-hb-seconds") float_of_string_opt);
                cache = Option.value ~default:"" (h "x-hb-cache") }
          | Error e ->
              close ();
              { b = seq.(i); due; sent; fin; status = 0; resp = e;
                handler_s = 0.; cache = "" }
        in
        record ~parent ~req:i "serve.request" ~t0:due ~t1:fin;
        out.(i) <- Some res;
        go ()
      end
    in
    go ();
    close ()
  in
  List.iter Thread.join (List.init threads (fun _ -> Thread.create worker ()));
  Array.map Option.get out

(* ---- answers ------------------------------------------------------------ *)

(* The oracle: a 200 carrying the body's fingerprint, and a yes witness
   that re-parses against the posted hypergraph into a valid HD of width
   at most the level it answers. Returns the verdict. *)
let verify_answer pool r =
  let body = pool.(r.b) in
  let bad fmt = Printf.ksprintf (fun m -> fail "%s (%s body)" m (fmt_name body.fmt); None) fmt in
  if r.status <> 200 then bad "HTTP %d: %s" r.status (String.escaped r.resp)
  else
    match (Kit.Json.of_string r.resp, body.hg) with
    | Error e, _ -> bad "unparseable answer: %s" e
    | Ok _, None -> bad "daemon answered a body that does not parse"
    | Ok j, Some h -> (
        let str k = Option.bind (Kit.Json.member k j) Kit.Json.string_value in
        let k = Option.bind (Kit.Json.member "k" j) Kit.Json.to_int in
        match (str "fingerprint", str "verdict", k) with
        | Some fp, _, _ when fp <> body.fp -> bad "wrong fingerprint %s" fp
        | _, Some "yes", Some k -> (
            match str "decomposition" with
            | None -> bad "yes without a witness"
            | Some text -> (
                match Decomp_io.of_text h text with
                | Error e -> bad "witness does not parse: %s" e
                | Ok d ->
                    if Decomp.check_hd h d = [] && Decomp.width d <= k then Some "yes"
                    else bad "witness is not a valid HD of width <= %d" k))
        | _, Some (("no" | "timeout") as v), _ -> Some v
        | _ -> bad "malformed answer %s" r.resp)

type phase = {
  label : string;
  rate : float;
  results : res array;
  wall : float;  (* first due to last answer *)
  metrics_delta : string -> int;
}

let p99 l = percentile l 99.
let lat phase = Array.to_list (Array.map latency_ms phase.results)

let report phase =
  let l = lat phase in
  let n = Array.length phase.results in
  let ok = Array.fold_left (fun a r -> if r.status = 200 then a + 1 else a) 0 phase.results in
  Printf.printf
    "  %-16s rate %6.0f  sent %5d ok %5d failed %3d  wall %7.3f s  p50 %8.3f ms  p99 %8.3f ms  late p99 %7.3f ms\n"
    phase.label phase.rate n ok (n - ok) phase.wall (percentile l 50.) (p99 l)
    (p99 (Array.to_list (Array.map late_ms phase.results)))

let run_phase ?parent ~label ~pool ~d ~rate seq =
  let before = scrape d in
  let results, wall =
    span ?parent ("serve." ^ label) (fun id ->
        timed (fun () -> load ~parent:id ~pool ~port:d.port ~rate seq))
  in
  let after = scrape d in
  attempt (Array.length results);
  let ph = { label; rate; results; wall; metrics_delta = delta before after } in
  report ph;
  ph

(* ---- the rate ladder ------------------------------------------------------ *)

(* A step meets the limit when nothing failed, p99 stays under the limit
   and the last request went out less than the limit behind schedule (the
   backlog did not grow). [max_rps] is the throughput of the highest step
   that meets it, carried toward the first step that does not by where
   p99 crosses the limit (log-log interpolation), so the figure moves
   smoothly with capacity instead of jumping between ladder rungs. *)
let passes ~limit ph =
  let ok = Array.for_all (fun r -> r.status = 200) ph.results in
  let last = ph.results.(Array.length ph.results - 1) in
  ok && p99 (lat ph) <= limit && late_ms last <= limit

let throughput ph = float_of_int (Array.length ph.results) /. ph.wall

let max_rps ~limit steps =
  let rec climb prev = function
    | [] -> ( match prev with Some p -> throughput p | None -> 0.)
    | st :: rest when passes ~limit st -> climb (Some st) rest
    | st :: _ -> (
        let p99f =
          if Array.for_all (fun r -> r.status = 200) st.results then p99 (lat st)
          else Float.infinity
        in
        match prev with
        | None -> throughput st *. Float.min 1. (limit /. p99f)
        | Some p ->
            let lp = log (p99 (lat p)) in
            let f = (log limit -. lp) /. (log p99f -. lp) in
            let f = Float.max 0. (Float.min 1. f) in
            throughput p *. ((st.rate /. p.rate) ** f))
  in
  climb None steps

(* ---- in-process replay (traced runs) --------------------------------------- *)

(* Each body through the public calls the daemon makes, one span per
   call. The miss path: parse, fingerprint, then the hd ladder under one
   fuel deadline with a cache lookup, a det-k search and a cache store
   per level, and the witness encoding. The hit path, for every body the
   ladder decided: a cache lookup per level (which replays the witness),
   then witness parse and HD check on their own. Returns the median time
   of each call, in seconds. *)
let replay ~pool ~dir idx =
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let cache = Benchlib.Result_cache.create ~dir in
  let times = Hashtbl.create 16 in
  let note name dt =
    Hashtbl.replace times name (dt :: Option.value ~default:[] (Hashtbl.find_opt times name))
  in
  tracing := true;
  span "replay" (fun root ->
      Array.iteri
        (fun req i ->
          let call name f =
            let r, dt = timed (fun () -> span ~parent:root ~req name (fun _ -> f ())) in
            note name dt;
            r
          in
          let body = pool.(i) in
          let parse_layer =
            match body.fmt with
            | Hg_text -> "hypergraph.parse"
            | Hg_binary -> "hypergraph.binary_parse"
            | Sql -> "sql.convert"
            | Xcsp -> "xcsp.read"
          in
          match call parse_layer (fun () -> parse body.fmt body.payload) with
          | None -> ()
          | Some h ->
              ignore (call "hypergraph.fingerprint" (fun () -> Hg.Hypergraph.fingerprint h));
              let find k = Benchlib.Result_cache.find cache h ~meth:"hd" ~k in
              let store k v =
                call "benchlib.result_cache.store" (fun () ->
                    Benchlib.Result_cache.store cache h ~meth:"hd" ~k v)
              in
              let deadline = Kit.Deadline.of_fuel fuel and sweep = Detk.sweep_cache () in
              let solve_s = ref 0. in
              let rec ladder k =
                if k > 8 then Some (8, None)
                else begin
                  ignore (call "benchlib.result_cache.find_miss" (fun () -> find k));
                  let o, dt = timed (fun () -> call "detk.solve" (fun () -> Detk.solve ~deadline ~sweep h ~k)) in
                  solve_s := !solve_s +. dt;
                  match o with
                  | Detk.Decomposition d ->
                      ignore (call "decomp_io.to_text" (fun () -> Decomp_io.to_text h d));
                      store k (Benchlib.Result_cache.Yes d);
                      Some (k, Some d)
                  | Detk.No_decomposition ->
                      store k Benchlib.Result_cache.No;
                      ladder (k + 1)
                  | Detk.Timeout -> None
                end
              in
              let decided = ladder 1 in
              note "detk.solve_ladder" !solve_s;
              Option.iter
                (fun (top, witness) ->
                  for k = 1 to top do
                    ignore (call "benchlib.result_cache.find" (fun () -> find k))
                  done;
                  Option.iter
                    (fun d ->
                      let text = Decomp_io.to_text h d in
                      match call "decomp_io.of_text" (fun () -> Decomp_io.of_text h text) with
                      | Ok d -> ignore (call "decomp.check_hd" (fun () -> Decomp.check_hd h d))
                      | Error e -> fail "replay: witness does not re-parse: %s" e)
                    witness)
                decided)
        idx);
  rm_rf dir;
  fun name -> match Hashtbl.find_opt times name with Some l -> median l | None -> 0.

(* ---- the workload ------------------------------------------------------------ *)

(* Offered rate for p50/p99 (req/s, well under what two connections
   sustain, so the figures are service time rather than queueing),
   requests per latency window, closed-loop batch size, the fixed rate
   ladder for max_rps (2000 to 12000 req/s in steps of 1000, wide
   enough for a host twice as fast or slow) with its p99 limit, and
   seconds per ladder rung. *)
let nominal = 400.
let window = 1000
let n_batch = 6000
let ladder = List.init 11 (fun i -> float_of_int ((i + 2) * 1000))
let limit_ms = 50.
let rung_s = 1.

let verdicts pool ph =
  Array.map (fun r -> verify_answer pool r) ph.results

let guard_cache ~cold ph =
  Array.iter
    (fun r ->
      if r.status = 200 && r.cache <> (if cold then "miss" else "hit") then
        fail "serve: %s request answered with X-HB-Cache %S" ph.label r.cache)
    ph.results;
  if cold then
    check (ph.metrics_delta "cache.hit" = 0) "serve: cold %s saw %d cache hits"
      ph.label (ph.metrics_delta "cache.hit")
  else
    check
      (ph.metrics_delta "cache.miss" = 0 && ph.metrics_delta "cache.invalid" = 0
      && ph.metrics_delta "cache.hit" > 0)
      "serve-hit: %s hit ratio below 1 (hit %d miss %d invalid %d)" ph.label
      (ph.metrics_delta "cache.hit") (ph.metrics_delta "cache.miss")
      (ph.metrics_delta "cache.invalid")

let share_timeout vs =
  let n = Array.length vs in
  ratio (Array.fold_left (fun a v -> if v = Some "timeout" then a + 1 else a) 0 vs) n

(* Run [f] against a fresh daemon with an empty cache; returns [f]'s
   result, the daemon's set-up time and its peak RSS. *)
let with_daemon ~exe ~cache_dir f =
  let d = spawn ~exe ~cache_dir in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () -> if not !stopped then ignore (stop d))
    (fun () ->
      let r = f d in
      stopped := true;
      (r, d.setup_s, stop d))

type rounds = {
  windows : phase list;  (* nominal-rate latency windows *)
  batches : phase list;  (* closed-loop batches *)
  climbs : phase list list;  (* one ladder climb each *)
}

let run ~exe ~work ~seed ~seconds ~trace =
  let pool = bodies ~seed in
  let npool = Array.length pool in
  let rng = Kit.Rng.create (seed + 1) in
  let n_warm = min npool 600 in
  (* Set-up is spawn + warm-up, done three times from scratch. Each
     warm-up is a cold pass: a fresh daemon and an empty cache fed
     distinct bodies, so every answer is a miss, a det-k ladder and a
     cache store. Every cold answer goes through the oracle, and the
     three warm-ups must agree exactly. The last daemon stays up for the
     measured rounds. *)
  let warm d = run_phase ~label:"warm-up" ~pool ~d ~rate:0. (Array.init n_warm Fun.id) in
  let setups = ref [] and rss = ref [] in
  let daemon i f =
    let cache_dir = Filename.concat work (Printf.sprintf "cache-%d" i) in
    let (w, r), spawn_s, peak =
      with_daemon ~exe ~cache_dir (fun d ->
          let w = warm d in
          (w, f d w))
    in
    setups := (spawn_s +. w.wall) :: !setups;
    rss := peak :: !rss;
    (w, r)
  in
  let w1, () = daemon 1 (fun _ _ -> ()) in
  let w2, () = daemon 2 (fun _ _ -> ()) in
  let w3, (vs, settle, rounds, traced) =
    daemon 3 (fun d w3 ->
        let vs = verdicts pool w3 in
        let hot =
          Array.of_list
            (List.filter (fun i -> vs.(i) = Some "yes" || vs.(i) = Some "no")
               (List.init n_warm Fun.id))
        in
        if hot = [||] then failwith "serve-hit: no warm-up body got a definitive verdict";
        let seq n = Array.init n (fun _ -> hot.(Kit.Rng.int rng (Array.length hot))) in
        (* Before timing, every hot body is asked for once more, so the
           hit path's files and heap are warm. *)
        let settle =
          run_phase ~label:"settle" ~pool ~d ~rate:0. (Array.append hot hot)
        in
        (* Rounds of two latency windows, one closed-loop batch and one
           ladder climb (up to the first rung that fails), until the run
           has lasted [seconds]: every figure samples the whole run. *)
        let t_end = now () +. float_of_int seconds in
        let rec round n acc =
          let label s = Printf.sprintf "%s-%d" s n in
          let win i =
            run_phase ~label:(label (Printf.sprintf "nominal%c" i)) ~pool ~d ~rate:nominal
              (seq window)
          in
          let wa = win 'a' in
          let batch = run_phase ~label:(label "batch") ~pool ~d ~rate:0. (seq n_batch) in
          let wb = win 'b' in
          let rec climb = function
            | [] -> []
            | rate :: rest ->
                let st =
                  run_phase ~label:(Printf.sprintf "ladder-%d-%g" n rate) ~pool ~d ~rate
                    (seq (int_of_float (Float.round (rate *. rung_s))))
                in
                if passes ~limit:limit_ms st then st :: climb rest else [ st ]
          in
          (* The first climb starts at the bottom; later ones two rungs
             below where the one before stopped. *)
          let start =
            match acc.climbs with
            | [] -> 0
            | prev :: _ ->
                let top = (List.nth prev (List.length prev - 1)).rate in
                let rec index i = function
                  | r :: rest -> if r = top then i else index (i + 1) rest
                  | [] -> 0
                in
                max 0 (index 0 ladder - 2)
          in
          let acc =
            { windows = wb :: wa :: acc.windows; batches = batch :: acc.batches;
              climbs = climb (List.filteri (fun i _ -> i >= start) ladder) :: acc.climbs }
          in
          if n >= 3 && now () >= t_end then acc else round (n + 1) acc
        in
        let rounds = round 1 { windows = []; batches = []; climbs = [] } in
        let traced =
          if trace then begin
            (* The first window's bodies again, with spans on. *)
            tracing := true;
            let first = List.hd (List.rev rounds.windows) in
            Some
              (run_phase ~label:"nominal-traced" ~pool ~d ~rate:nominal
                 (Array.map (fun r -> r.b) first.results))
          end
          else None
        in
        tracing := false;
        (vs, settle, rounds, traced))
  in
  let warmups = [ w1; w2; w3 ] in
  let measured =
    (settle :: rounds.windows) @ rounds.batches @ List.concat rounds.climbs
    @ Option.to_list traced
  in
  (* The oracle: every cold answer is verified; every hit must be
     byte-identical to the verified warm-up answer for its body. *)
  List.iter (fun ph -> ignore (verdicts pool ph)) [ w1; w2 ];
  let expected = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace expected r.b r.resp) w3.results;
  List.iter
    (fun ph ->
      Array.iter
        (fun r ->
          if r.status <> 200 || Hashtbl.find_opt expected r.b <> Some r.resp then
            fail "serve-hit: %s answer %d differs from the warm-up answer" ph.label r.status)
        ph.results)
    measured;
  List.iter (guard_cache ~cold:true) warmups;
  List.iter (guard_cache ~cold:false) measured;
  (* Determinism: the fuel budget fixes every answer, and with it the
     search and cache counters, of cold daemons fed the same bodies. *)
  let key ph =
    ( List.sort compare (Array.to_list (Array.map (fun r -> (r.b, r.resp)) ph.results)),
      List.map ph.metrics_delta
        [ "cache.miss"; "cache.store"; "cache.hit"; "detk.subproblems"; "detk.memo_hits" ] )
  in
  List.iter
    (fun b -> check (key w1 = key b) "serve-hit: warm-up %s and the first disagree" b.label)
    [ w2; w3 ];
  (* Each figure is the median over the run's rounds. *)
  let lat_q q = median (List.map (fun w -> percentile (lat w) q) rounds.windows) in
  let p50_ms = lat_q 50. and p99_ms = lat_q 99. in
  let e2e =
    [ m "setup_s" "s" (median !setups);
      m "wall_s" "s" (median (List.map (fun b -> b.wall) rounds.batches));
      m "undecided_share" "ratio" (share_timeout vs);
      m "p50_ms" "ms" p50_ms;
      m "max_rps" "1/s" (median (List.map (max_rps ~limit:limit_ms) rounds.climbs));
      m "peak_rss_mb" "MiB" (median !rss) ]
  in
  Printf.printf
    "serve-hit: pool %d bodies, %d warmed (%d definitive); %d rounds of two %d-request windows at \
     %g req/s, a %d-request batch and a ladder climb (p99 limit %g ms)\n"
    npool n_warm
    (Array.fold_left (fun a v -> if v = Some "yes" || v = Some "no" then a + 1 else a) 0 vs)
    (List.length rounds.batches) window nominal n_batch limit_ms;
  Printf.printf "serve-hit: p99 latency at %g req/s, median over the windows: %.3f ms\n" nominal p99_ms;
  match traced with
  | None -> (e2e, [])
  | Some traced ->
      (* The daemon reports its handler time (X-HB-Seconds); the rest
         of each request's latency is outside the handler: the wire,
         HTTP parsing, queueing and the generator. *)
      let handler = Array.to_list (Array.map (fun r -> r.handler_s *. 1000.) traced.results) in
      let outside =
        Array.to_list (Array.map (fun r -> latency_ms r -. (r.handler_s *. 1000.)) traced.results)
      in
      (* Tracing overhead: the traced window's p50 against the median
         of the untraced windows' (one window alone is too noisy). *)
      let t50 = percentile (lat traced) 50. in
      (* The replay covers the miss path on every warmed body and the
         hit path on every body the ladder decided. *)
      let rp = replay ~pool ~dir:(Filename.concat work "replay") (Array.init n_warm Fun.id) in
      let total f = List.fold_left (fun a ph -> a + f ph) 0 measured in
      let hits = total (fun ph -> ph.metrics_delta "cache.hit") in
      let looks =
        total (fun ph ->
            ph.metrics_delta "cache.hit" + ph.metrics_delta "cache.miss"
            + ph.metrics_delta "cache.invalid")
      in
      let memo_h = w3.metrics_delta "detk.memo_hits"
      and memo_m = w3.metrics_delta "detk.memo_misses" in
      let late = List.concat_map (fun w -> Array.to_list (Array.map late_ms w.results)) rounds.windows in
      let layers =
        [ m "trace.span_coverage" "ratio" (sum handler /. sum (lat traced));
          m "trace.overhead_share" "ratio" ((t50 -. p50_ms) /. p50_ms);
          m "detk.subproblems" "count" (float_of_int (w3.metrics_delta "detk.subproblems"));
          m "detk.memo_hit_ratio" "ratio" (ratio memo_h (memo_h + memo_m));
          m "serve.handler_ms" "ms" (percentile handler 50.);
          m "serve.outside_handler_ms" "ms" (percentile outside 50.);
          m "hypergraph.parse_us" "us" (1e6 *. rp "hypergraph.parse");
          m "hypergraph.binary_parse_us" "us" (1e6 *. rp "hypergraph.binary_parse");
          m "sql.convert_us" "us" (1e6 *. rp "sql.convert");
          m "xcsp.read_us" "us" (1e6 *. rp "xcsp.read");
          m "hypergraph.fingerprint_us" "us" (1e6 *. rp "hypergraph.fingerprint");
          m "benchlib.result_cache.find_us" "us" (1e6 *. rp "benchlib.result_cache.find");
          m "decomp_io.of_text_us" "us" (1e6 *. rp "decomp_io.of_text");
          m "decomp.check_hd_us" "us" (1e6 *. rp "decomp.check_hd");
          m "benchlib.result_cache.store_us" "us" (1e6 *. rp "benchlib.result_cache.store");
          m "detk.solve_ms" "ms" (1e3 *. rp "detk.solve_ladder");
          m "decomp_io.to_text_us" "us" (1e6 *. rp "decomp_io.to_text");
          m "benchlib.result_cache.hit_ratio" "ratio" (ratio hits looks);
          m "loadgen.late_p99_ms" "ms" (p99 late) ]
      in
      (e2e, layers)
