module V = Kit.Varint

let write buf (h : Hypergraph.t) =
  V.write buf h.Hypergraph.n_vertices;
  V.write buf h.Hypergraph.n_edges;
  Array.iter (V.write_string buf) h.Hypergraph.vertex_names;
  Array.iter (V.write_string buf) h.Hypergraph.edge_names;
  Array.iter
    (fun e ->
      let vs = Kit.Bitset.to_list e in
      V.write buf (List.length vs);
      (* to_list is strictly ascending, so every delta is >= 1; starting
         from -1 makes the first delta the id + 1. *)
      ignore
        (List.fold_left
           (fun prev v ->
             V.write buf (v - prev);
             v)
           (-1) vs))
    h.Hypergraph.edges

let to_string h =
  let buf = Buffer.create 256 in
  write buf h;
  Buffer.contents buf

let read_report s pos =
  try
    let nv = V.read s pos in
    let ne = V.read s pos in
    (* Every name costs at least one byte, so counts beyond the input
       size are corruption — refuse before Array.init allocates for
       them. *)
    if nv > String.length s - !pos || ne > String.length s - !pos then
      raise (V.Corrupt "header counts exceed input size");
    let vertex_names = Array.init nv (fun _ -> V.read_string s pos) in
    let edge_names = Array.init ne (fun _ -> V.read_string s pos) in
    let members =
      Array.init ne (fun _ ->
          let n = V.read s pos in
          if n <= 0 || n > nv then raise (V.Corrupt "bad edge size");
          let prev = ref (-1) in
          List.init n (fun _ ->
              let d = V.read s pos in
              if d <= 0 then raise (V.Corrupt "non-ascending edge members");
              prev := !prev + d;
              if !prev >= nv then raise (V.Corrupt "vertex id out of range");
              !prev))
    in
    match Hypergraph.create ~vertex_names ~edge_names members with
    | h -> Ok h
    | exception Invalid_argument m ->
        Error (Kit.Diag.error (Kit.Diag.point 0) m)
  with V.Corrupt m ->
    (* [pos] points at (or just past) the byte that betrayed the
       corruption — a usable anchor for hexdump-style triage. *)
    Error (Kit.Diag.error (Kit.Diag.point !pos) ("binary hypergraph: " ^ m))

let of_string_report s =
  match Kit.Limits.check_input s with
  | Some d -> Error d
  | None -> (
      let pos = ref 0 in
      match read_report s pos with
      | Error _ as e -> e
      | Ok h ->
          if !pos <> String.length s then
            Error
              (Kit.Diag.error
                 (Kit.Diag.span !pos (String.length s))
                 "binary hypergraph: trailing bytes")
          else Ok h)
