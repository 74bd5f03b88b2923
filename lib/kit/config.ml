type knob = { name : string; default : string; doc : string }

(* A typed knob: [parse] gets the raw value and answers the value or
   what it expected, e.g. "an integer >= 1". *)
type 'a spec = { key : string; parse : string -> ('a, string) result }

(* The one place the tool reads its environment. *)
let raw name =
  match Sys.getenv_opt name with None | Some "" -> None | Some v -> Some v

let get s =
  match raw s.key with
  | None -> None
  | Some v -> (
      match s.parse v with
      | Ok x -> Some x
      | Error expected ->
          invalid_arg (Printf.sprintf "%s: expected %s, got %S" s.key expected v))

let int ?min key =
  let expected =
    match min with
    | None -> "an integer"
    | Some m -> Printf.sprintf "an integer >= %d" m
  in
  let parse v =
    match (int_of_string_opt (String.trim v), min) with
    | Some n, None -> Ok n
    | Some n, Some m when n >= m -> Ok n
    | _ -> Error expected
  in
  { key; parse }

(* [strict]: the value must exceed 0, else be at least 0. *)
let number ~strict key =
  let expected = if strict then "a number > 0" else "a number >= 0" in
  let parse v =
    match float_of_string_opt (String.trim v) with
    | Some x when x > 0. || ((not strict) && x = 0.) -> Ok x
    | _ -> Error expected
  in
  { key; parse }

(* Paths are taken verbatim; [ok] rules out the values that could never
   work, such as a cache "directory" that is a regular file. *)
let path key ~expected ok =
  { key; parse = (fun v -> if ok v then Ok v else Error expected) }

let is_dir v = Sys.file_exists v && Sys.is_directory v

let jobs_k = int ~min:1 "HB_JOBS"
let mem_mb_k = int ~min:1 "HB_MEM_MB"
let wall_k = number ~strict:true "HB_WALL"

let cache_k =
  path "HB_CACHE" ~expected:"a directory path" (fun v ->
      is_dir v || not (Sys.file_exists v))

let fault_k =
  {
    key = "HB_FAULT";
    parse =
      (fun v ->
        match Fault.validate v with
        | Ok () -> Ok v
        | Error m -> Error (Printf.sprintf "a fault spec (%s)" m));
  }

let perf_iters_k = int ~min:1 "HB_PERF_ITERS"

let gate_k =
  path "HB_GATE" ~expected:"an existing file" (fun v ->
      Sys.file_exists v && not (Sys.is_directory v))

let idle_k = number ~strict:false "HB_IDLE"
let read_timeout_k = number ~strict:false "HB_READ_TIMEOUT"
let write_timeout_k = number ~strict:false "HB_WRITE_TIMEOUT"
let drain_k = number ~strict:false "HB_DRAIN"
let parse_depth_k = int ~min:1 "HB_PARSE_DEPTH"
let max_input_k = int ~min:1 "HB_MAX_INPUT"

(* Each row pairs the documented knob with its validation. *)
let row s ~default doc =
  ( { name = s.key; default; doc },
    fun () ->
      match get s with _ -> None | exception Invalid_argument m -> Some m )

let rows =
  [
    row jobs_k ~default:"all cores"
      "Width of the analysis pool and of the serve worker pool.";
    row mem_mb_k ~default:"unset" "Per-instance memory budget in MiB.";
    row wall_k ~default:"3600 s" "Watchdog budget per attempt of an isolated worker.";
    row cache_k ~default:"unset" "Directory of the result cache.";
    row fault_k ~default:"unset" "Fault-injection spec (see Kit.Fault).";
    row perf_iters_k ~default:"10000" "Iterations per kernel of bench perf.";
    row gate_k ~default:"unset" "Gate file of the bench legs.";
    row idle_k ~default:"5 s" "Keep-alive idle timeout of the daemon.";
    row read_timeout_k ~default:"10 s" "Mid-request stall budget of the daemon.";
    row write_timeout_k ~default:"30 s" "Response send budget of the daemon.";
    row drain_k ~default:"0.25 s" "Drain grace of the daemon.";
    row parse_depth_k ~default:"200" "Recursion-depth cap of every parser.";
    row max_input_k ~default:"64 MiB" "Input-size cap of every parser, in bytes.";
  ]

let knobs = List.map fst rows

let errors () = List.filter_map (fun (_, error) -> error ()) rows

let unknown () =
  Array.to_list (Unix.environment ())
  |> List.filter_map (fun kv ->
         match String.index_opt kv '=' with
         | Some i
           when i + 1 < String.length kv
                && String.starts_with ~prefix:"HB_" kv ->
             let name = String.sub kv 0 i in
             if List.exists (fun k -> k.name = name) knobs then None
             else Some name
         | _ -> None)
  |> List.sort_uniq compare

let fault () = get fault_k

let check ~prog =
  let errs = errors () in
  List.iter (Printf.eprintf "%s: %s\n" prog) errs;
  List.iter (Printf.eprintf "%s: warning: unknown knob %s\n" prog) (unknown ());
  flush stderr;
  if errs <> [] then exit 1;
  Option.iter (fun spec -> ignore (Fault.configure spec)) (fault ())

let jobs () =
  match get jobs_k with Some j -> j | None -> Domain.recommended_domain_count ()

let mem_mb () = get mem_mb_k
let wall () = get wall_k

let cache () = get cache_k
let perf_iters () = Option.value (get perf_iters_k) ~default:10_000
let gate () = get gate_k
let idle () = Option.value (get idle_k) ~default:5.0
let read_timeout () = Option.value (get read_timeout_k) ~default:10.0
let write_timeout () = Option.value (get write_timeout_k) ~default:30.0
let drain () = Option.value (get drain_k) ~default:0.25
let parse_depth () = Option.value (get parse_depth_k) ~default:200
let max_input () = Option.value (get max_input_k) ~default:(64 * 1024 * 1024)
