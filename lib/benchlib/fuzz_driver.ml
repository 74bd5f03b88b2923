type format = Sql | Xcsp | Hg | Hbx

let all_formats = [ Sql; Xcsp; Hg; Hbx ]

let format_name = function
  | Sql -> "sql"
  | Xcsp -> "xcsp"
  | Hg -> "hg"
  | Hbx -> "hbx"

let format_of_string = function
  | "sql" -> Some Sql
  | "xcsp" -> Some Xcsp
  | "hg" -> Some Hg
  | "hbx" -> Some Hbx
  | _ -> None

type failure = { index : int; outcome : string; input : string; shrunk : string }

type summary = {
  fmt : format;
  cases : int;
  parsed : int;
  rejected : int;
  failures : failure list;
}

(* The frontend's [_report] API, with the result discarded. *)
let parse_for fmt =
  match fmt with
  | Sql -> fun s -> Result.map ignore (Sql.Convert.sql_to_hypergraphs_report s)
  | Xcsp -> fun s -> Result.map ignore (Xcsp3.Xcsp.read_report s)
  | Hg -> fun s -> Result.map ignore (Hg.Hypergraph.parse_report s)
  | Hbx ->
      fun s ->
        Result.map ignore (Hg.Binary.of_string_report s)
        |> Result.map_error (fun d -> [ d ])

(* One case: [true] when it parses. A rejection is rendered as the 422
   body the daemon would send, so a crash in caret or JSON rendering on
   hostile input is a fuzz failure too. *)
let attempt fmt =
  let parse = parse_for fmt in
  let format = format_name fmt in
  fun source ->
    match parse source with
    | Ok () -> true
    | Error diags ->
        ignore (Kit.Json.to_string (Service.rejection ~format ~source diags));
        false

(* A small pool of valid inputs per format for mutation mode, built once
   from a fixed seed so the corpus (and thus every mutated case) is
   independent of the run's seed. *)
let valid_pool fmt =
  let rng = Kit.Rng.create 42 in
  let graphs =
    List.init 4 (fun _ -> Gen.Random_csp.typical rng)
    @ [
        Gen.Random_cq.chain rng ~n_edges:5 ~arity:3;
        Gen.Random_cq.star rng ~n_edges:4 ~arity:3;
      ]
  in
  match fmt with
  | Hg -> Array.of_list (List.map Hg.Hypergraph.to_string graphs)
  | Hbx -> Array.of_list (List.map Hg.Binary.to_string graphs)
  | Xcsp ->
      Array.of_list
        (List.mapi
           (fun i h -> Xcsp3.Xcsp.to_xml ~name:(Printf.sprintf "f%d" i) h)
           graphs)
  | Sql ->
      [|
        "SELECT * FROM tab t1, tab t2 WHERE t1.a = t2.a AND t1.b > 5;";
        "WITH v AS (SELECT t1.a a1, t2.a a2 FROM tab t1, tab t2 WHERE \
         t1.b = t2.b) SELECT * FROM tab t, v WHERE t.a = v.a1;";
        "SELECT r.u FROM r, s WHERE r.x = s.y AND s.w = r.u";
        "SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE c = 'x') AND \
         EXISTS (SELECT * FROM w WHERE w.k = 1);";
        "SELECT t1.a, COUNT(*) FROM tab t1 JOIN tab t2 ON t1.a = t2.a \
         GROUP BY t1.a HAVING COUNT(*) > 1 ORDER BY t1.a DESC LIMIT 3;";
      |]

let generator fmt =
  match fmt with
  | Sql -> Kit.Fuzz.sql
  | Xcsp -> Kit.Fuzz.xcsp
  | Hg -> Kit.Fuzz.hg
  | Hbx -> Kit.Fuzz.hbx

let outcome_label (o : unit Kit.Outcome.t) =
  match o with
  | Kit.Outcome.Crash detail ->
      (* Keep only the first line: backtraces are not stable summary
         material. *)
      let first = match String.index_opt detail '\n' with
        | Some i -> String.sub detail 0 i
        | None -> detail
      in
      "crash: " ^ first
  | o -> Kit.Outcome.label o

let crashes fmt input =
  match Kit.Guard.run (fun () -> ignore (attempt fmt input)) with
  | Kit.Outcome.Ok () -> None
  | o -> Some (outcome_label o)

let run fmt ~cases ~seed =
  let pool = valid_pool fmt in
  let gen = generator fmt in
  let attempt = attempt fmt in
  let parsed = ref 0 in
  let rejected = ref 0 in
  let failures = ref [] in
  for i = 0 to cases - 1 do
    (* One independent splitmix stream per case: a failing case replays
       from (seed, index) without regenerating its predecessors. *)
    let rng = Kit.Rng.create ((seed * 1_000_003) + i) in
    let input =
      if Kit.Rng.int rng 4 = 0 then
        Kit.Fuzz.mutate rng pool.(Kit.Rng.int rng (Array.length pool))
      else gen rng
    in
    match Kit.Guard.run (fun () -> attempt input) with
    | Kit.Outcome.Ok true -> incr parsed
    | Kit.Outcome.Ok false -> incr rejected
    | o ->
        let outcome = outcome_label (Kit.Outcome.map ignore o) in
        let shrunk =
          Kit.Fuzz.shrink
            (fun candidate -> crashes fmt candidate <> None)
            input
        in
        failures := { index = i; outcome; input; shrunk } :: !failures
  done;
  {
    fmt;
    cases;
    parsed = !parsed;
    rejected = !rejected;
    failures = List.rev !failures;
  }
