let m_spawn_failure = Metrics.counter "pool.spawn_failures"

(* Work-stealing is overkill for our coarse, independent tasks: a shared
   atomic next-task counter keeps all domains busy until the array is
   drained, and writing results by index preserves input order exactly. *)
let run_with ~jobs step n =
  let jobs = Stdlib.max 1 (Stdlib.min jobs n) in
  if jobs <= 1 then
    for i = 0 to n - 1 do
      step i
    done
  else begin
    let next = Atomic.make 0 in
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        step i;
        worker ()
      end
    in
    (* Domain.spawn can itself fail (the runtime caps live domains, and
       the OS can refuse a thread). Degrade to however many workers did
       spawn — the shared counter already load-balances over any number —
       rather than aborting with the spawned domains unjoined. *)
    let domains = ref [] in
    (try
       for _ = 2 to jobs do
         domains := Domain.spawn worker :: !domains
       done
     with _ -> Metrics.incr m_spawn_failure);
    worker ();
    List.iter Domain.join !domains
  end

let run_result ~jobs f tasks =
  let n = Array.length tasks in
  (* Every slot is overwritten before [run_with] returns (the counter
     hands out each index exactly once and workers drain it), so the
     placeholder can never escape. *)
  let results = Array.make n (Error Exit) in
  run_with ~jobs (fun i -> results.(i) <- (try Ok (f tasks.(i)) with e -> Error e)) n;
  results

let run_outcome ?mem_mb ?isolate ?wall ~jobs f tasks =
  let isolate = match isolate with Some b -> b | None -> Config.isolate () in
  if isolate then Proc.outcomes ~jobs ?mem_mb ?wall f tasks
  else begin
    let n = Array.length tasks in
    let results = Array.make n Outcome.Timeout in
    run_with ~jobs
      (fun i -> results.(i) <- Guard.run ?mem_mb (fun () -> f tasks.(i)))
      n;
    results
  end

let run ~jobs f tasks =
  Array.map
    (function Ok v -> v | Error e -> raise e)
    (run_result ~jobs f tasks)

let map_list ~jobs f l = Array.to_list (run ~jobs f (Array.of_list l))
