(* Shared pieces of the benchmark: clocks and order statistics, the
   in-memory span recorder, operation/failure accounting, and the result
   line the benchmark ends with. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- order statistics ------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, p in [0, 100]; 0 for an empty sample. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let r = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (r - 1)))

(* The middle value, or the mean of the two middle values. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.
            | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d"
                  (fun kb -> float_of_int kb /. 1024.)
            | _ -> scan ()
          in
          scan ())

(* ---- operations and failures ----------------------------------------- *)

(* Every operation the workload performs counts as attempted; a crash, a
   non-200, a transport error, a wrong answer or a broken self-check
   counts as failed. The first few messages are kept for the report. *)
let attempted = ref 0
let failed = ref 0
let messages = ref []

let attempt n = attempted := !attempted + n

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failed;
      if List.length !messages < 20 then messages := m :: !messages)
    fmt

(* Take over the counts and messages (oldest first) of a forked child. *)
let absorb (a, f, msgs) =
  attempted := !attempted + a;
  failed := !failed + f;
  List.iter (fun m -> if List.length !messages < 20 then messages := m :: !messages) msgs

let check cond fmt =
  Printf.ksprintf (fun m -> if not cond then fail "%s" m) fmt

(* ---- spans ------------------------------------------------------------ *)

(* A span is one timed call made by the benchmark into a layer: name,
   start, end, the span that caused it and the request (or campaign pass) it
   belongs to. Spans stay in memory until [write_spans]. Recording is
   off unless the run is traced; [span] then just runs its body. *)
type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  t0 : float;
  t1 : float;
}

let tracing = ref false
let spans = ref []
let next_id = ref 0
let lock = Mutex.create ()

let fresh_id () =
  Mutex.lock lock;
  incr next_id;
  let id = !next_id in
  Mutex.unlock lock;
  id

let record ?(parent = 0) ?(req = 0) ?(id = 0) name ~t0 ~t1 =
  if !tracing then begin
    let id = if id = 0 then fresh_id () else id in
    Mutex.lock lock;
    spans := { id; name; parent; req; t0; t1 } :: !spans;
    Mutex.unlock lock
  end

(* Take over the spans a forked child recorded. The child started from
   this process's id counter, so moving the counter past the child's ids
   keeps every id unique. *)
let adopt child =
  Mutex.lock lock;
  List.iter (fun s -> next_id := max !next_id s.id) child;
  spans := child @ !spans;
  Mutex.unlock lock

(* [span name f] runs [f id], where [id] is the span's own id (the
   parent of any span [f] records); 0 when not tracing. *)
let span ?parent ?req name f =
  if not !tracing then f 0
  else begin
    let id = fresh_id () in
    let t0 = now () in
    Fun.protect
      ~finally:(fun () -> record ?parent ?req ~id name ~t0 ~t1:(now ()))
      (fun () -> f id)
  end

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let iv =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (tot, cur) (a, b) ->
        match cur with
        | None -> (tot, Some (a, b))
        | Some (ca, cb) when a <= cb -> (tot, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (tot +. (cb -. ca), Some (a, b)))
      (0., None) iv
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Per span name: count, total time and self time (a span's duration
   minus the part of it that its children cover), in first-seen order. *)
let self_times () =
  let all = List.rev !spans in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> Hashtbl.add children s.parent (s.t0, s.t1))
    all;
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self =
        dur -. covered ~lo:s.t0 ~hi:s.t1 (Hashtbl.find_all children s.id)
      in
      match Hashtbl.find_opt tbl s.name with
      | Some (n, d, sf) -> Hashtbl.replace tbl s.name (n + 1, d +. dur, sf +. self)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (1, dur, self))
    all;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let write_spans path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc
            (Kit.Json.to_string
               (Kit.Json.Obj
                  [ ("id", Kit.Json.Int s.id);
                    ("name", Kit.Json.String s.name);
                    ("parent", Kit.Json.Int s.parent);
                    ("req", Kit.Json.Int s.req);
                    ("start", Kit.Json.Float s.t0);
                    ("end", Kit.Json.Float s.t1) ]));
          output_char oc '\n')
        (List.rev !spans))

(* ---- the result ------------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* Human-readable lines first, then the one-line JSON result last. *)
let emit ~workload ~correct metrics =
  List.iter
    (fun x -> Printf.printf "%-34s %-10s %16.6f %s\n" x.name workload x.value x.unit)
    metrics;
  Printf.printf "%s\n%!"
    (Kit.Json.to_string
       (Kit.Json.Obj
          [ ("correct", Kit.Json.Bool correct);
            ("attempted", Kit.Json.Int (max 1 !attempted));
            ("failed", Kit.Json.Int !failed);
            ("metrics",
             Kit.Json.Obj
               (List.map
                  (fun x ->
                    ( x.name,
                      Kit.Json.Obj
                        [ ("value", Kit.Json.Float x.value);
                          ("unit", Kit.Json.String x.unit) ] ))
                  metrics)) ]))
