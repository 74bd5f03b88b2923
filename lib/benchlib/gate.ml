type op = Le | Ge
type bound = { line : int; leg : string; metric : string; op : op; value : float }

let legs = [ "perf"; "serve" ]
let op_name = function Le -> "<=" | Ge -> ">="

(* Whitespace-separated fields of a line, '#' to end of line dropped. *)
let fields raw =
  let code =
    match String.index_opt raw '#' with
    | Some i -> String.sub raw 0 i
    | None -> raw
  in
  String.map (function '\t' | '\r' -> ' ' | c -> c) code
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")

let parse_bound line key op value =
  let ( let* ) = Result.bind in
  let* leg, metric =
    match String.index_opt key '.' with
    | Some i when i > 0 && i < String.length key - 1 ->
        let leg = String.sub key 0 i in
        if List.mem leg legs then
          Ok (leg, String.sub key (i + 1) (String.length key - i - 1))
        else
          Error
            (Printf.sprintf "unknown leg %S (expected one of %s)" leg
               (String.concat ", " legs))
    | Some _ | None ->
        Error (Printf.sprintf "expected <leg>.<metric>, got %S" key)
  in
  let* op =
    match op with
    | "<=" -> Ok Le
    | ">=" -> Ok Ge
    | o -> Error (Printf.sprintf "expected <= or >=, got %S" o)
  in
  match float_of_string_opt value with
  | Some value when Float.is_finite value -> Ok { line; leg; metric; op; value }
  | Some _ | None -> Error (Printf.sprintf "expected a number, got %S" value)

let parse ~file text =
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | raw :: rest -> (
        let parsed =
          match fields raw with
          | [] -> Ok None
          | [ key; op; value ] ->
              Result.map Option.some (parse_bound n key op value)
          | _ ->
              Error
                (Printf.sprintf "expected <leg>.<metric> <=|>= <value>, got %S"
                   raw)
        in
        match parsed with
        | Ok None -> go (n + 1) acc rest
        | Ok (Some b) -> go (n + 1) (b :: acc) rest
        | Error m -> Error (Printf.sprintf "%s:%d: %s" file n m))
  in
  go 1 [] (String.split_on_char '\n' text)

let read path = Result.bind (Fsio.read_file path) (parse ~file:path)

let check bounds ~leg rows =
  List.concat_map
    (fun b ->
      if b.leg <> leg then []
      else
        match List.assoc_opt b.metric rows with
        | None ->
            [
              Printf.sprintf "line %d: %s produces no metric %S" b.line leg
                b.metric;
            ]
        | Some values ->
            List.filter_map
              (fun v ->
                let ok = match b.op with Le -> v <= b.value | Ge -> v >= b.value in
                if ok then None
                else
                  Some
                    (Printf.sprintf "line %d: %s.%s = %g, bound %s %g" b.line leg
                       b.metric v (op_name b.op) b.value))
              values)
    bounds
