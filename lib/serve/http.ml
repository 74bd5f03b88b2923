type version = V10 | V11

type request = {
  meth : string;
  target : string;
  path : string;
  query : (string * string) list;
  version : version;
  headers : (string * string) list;
  body : string;
  client : string;
}

type response = {
  status : int;
  headers : (string * string) list;
  body : string;
}

let reason = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Payload Too Large"
  | 415 -> "Unsupported Media Type"
  | 422 -> "Unprocessable Entity"
  | 429 -> "Too Many Requests"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | 504 -> "Gateway Timeout"
  | s when s >= 200 && s < 300 -> "OK"
  | s when s >= 400 && s < 500 -> "Bad Request"
  | _ -> "Error"

let response ?(content_type = "application/json") ?(headers = []) status body =
  { status; headers = ("Content-Type", content_type) :: headers; body }

let error_body status msg =
  Kit.Json.to_string
    (Kit.Json.Obj
       [ ("error", Kit.Json.Int status); ("message", Kit.Json.String msg) ])

let header (req : request) name =
  List.find_map
    (fun (n, v) -> if String.equal n name then Some v else None)
    req.headers

let param (req : request) name =
  List.find_map
    (fun (n, v) -> if String.equal n name then Some v else None)
    req.query

let token_of_connection req =
  match header req "connection" with
  | None -> None
  | Some v ->
      (* Connection is a comma-separated token list; we only care about
         close / keep-alive. *)
      String.split_on_char ',' v
      |> List.map (fun s -> String.lowercase_ascii (String.trim s))
      |> fun toks ->
      if List.mem "close" toks then Some `Close
      else if List.mem "keep-alive" toks then Some `Keep_alive
      else None

let keep_alive_requested req =
  match (req.version, token_of_connection req) with
  | _, Some `Close -> false
  | _, Some `Keep_alive -> true
  | V11, None -> true
  | V10, None -> false

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* Default per-read stall budget once a request has started. Generous
   enough for slow genuine clients, small enough that a slowloris peer
   cannot pin a worker for long. *)
let default_mid_read_timeout = 10.0
let default_write_timeout = 30.0

type conn = {
  fd : Unix.file_descr;
  who : string;
  mutable buf : string;
      (* bytes read but not yet consumed; a body that outgrows it is read
         straight into its own buffer, so this stays a few KiB *)
  scratch : Bytes.t;  (* per-connection read buffer — conns cross threads *)
  mid_read : float;  (* per-read stall budget once a request has started *)
  send_timeout : float;  (* per-response write budget *)
  abort : unit -> bool;  (* the server is draining — shed stalled peers *)
  grace : float;  (* extra seconds a blocked read gets once [abort] *)
  mutable abort_seen : float;  (* when this conn first observed [abort] *)
  mutable rcv_slice : float;  (* the SO_RCVTIMEO set on [fd]; nan: none *)
}

let conn ?(client = "-") ?(mid_read_timeout = default_mid_read_timeout)
    ?(write_timeout = default_write_timeout) ?(abort = fun () -> false)
    ?(grace = infinity) fd =
  (* The write budget never changes: one syscall per connection. *)
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO write_timeout
   with Unix.Unix_error _ | Invalid_argument _ -> ());
  {
    fd;
    who = client;
    buf = "";
    scratch = Bytes.create 8192;
    mid_read = mid_read_timeout;
    send_timeout = write_timeout;
    abort;
    grace;
    abort_seen = neg_infinity;
    rcv_slice = Float.nan;
  }

let client c = c.who
let buffered c = String.length c.buf > 0

type read_error =
  | Eof
  | Idle_timeout
  | Mid_timeout
  | Bad of string
  | Head_too_large
  | Body_too_large

exception Fail of read_error

(* Every slice but the last before a deadline is the same 0.25 s, so
   the socket option is set only when the slice changes. *)
let set_rcvtimeo c secs =
  if not (Float.equal secs c.rcv_slice) then begin
    c.rcv_slice <- secs;
    try Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO secs
    with Unix.Unix_error _ | Invalid_argument _ -> ()
  end

(* Read between 1 and [len] bytes into [dst] at [off] and return how
   many. [started] selects which timeout error a stall maps to. Raises
   [Fail] on eof/timeout/reset. A connection is owned by exactly one
   worker at a time.

   The wait is sliced so a blocked read notices [abort] (drain) within a
   slice and then gets only [grace] more seconds, not its whole timeout:
   SIGTERM with a mid-body-stalled peer must not pin the join for the
   full stall budget. A slice that returns data costs nothing extra —
   slicing only runs while the peer is silent. *)
let read_some c ~timeout ~started dst off len =
  let stalled =
    (* Injected peer behaviour (chaos harness): a stall pretends the
       socket stays silent so the genuine timeout/drain machinery below
       decides the outcome; reset/torn surface as an abrupt close. *)
    match Kit.Fault.net "serve.read" with
    | Some (Kit.Fault.Reset | Kit.Fault.Torn) -> raise (Fail Eof)
    | Some Kit.Fault.Stall -> true
    | _ -> false
  in
  let deadline = Unix.gettimeofday () +. timeout in
  let rec wait () =
    let now = Unix.gettimeofday () in
    let limit =
      if c.abort () then begin
        if c.abort_seen = neg_infinity then c.abort_seen <- now;
        Float.min deadline (c.abort_seen +. c.grace)
      end
      else deadline
    in
    if now >= limit then
      raise (Fail (if started then Mid_timeout else Idle_timeout));
    let slice = Float.min (limit -. now) 0.25 in
    let n =
      if stalled then begin
        Unix.sleepf slice;
        -1
      end
      else begin
        set_rcvtimeo c slice;
        try Unix.read c.fd dst off len with
        | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
          ->
            -1
        | Unix.Unix_error _ -> raise (Fail Eof)
      end
    in
    if n = 0 then raise (Fail Eof) else if n < 0 then wait () else n
  in
  wait ()

(* Append one read to [c.buf]: heads and chunk lines, whose size is
   capped, so the append stays cheap. *)
let refill c ~timeout ~started =
  let n =
    read_some c ~timeout ~started c.scratch 0 (Bytes.length c.scratch)
  in
  c.buf <- c.buf ^ Bytes.sub_string c.scratch 0 n

let take c n =
  let s = String.sub c.buf 0 n in
  c.buf <- String.sub c.buf n (String.length c.buf - n);
  s

(* ------------------------------------------------------------------ *)
(* Percent decoding                                                    *)
(* ------------------------------------------------------------------ *)

let hex_val ch =
  match ch with
  | '0' .. '9' -> Some (Char.code ch - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code ch - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code ch - Char.code 'A' + 10)
  | _ -> None

let percent_decode ?(plus_space = false) s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '%' when !i + 2 < n -> (
        match (hex_val s.[!i + 1], hex_val s.[!i + 2]) with
        | Some h, Some l ->
            Buffer.add_char b (Char.chr ((h * 16) + l));
            i := !i + 2
        | _ -> Buffer.add_char b '%')
    | '+' when plus_space -> Buffer.add_char b ' '
    | ch -> Buffer.add_char b ch);
    incr i
  done;
  Buffer.contents b

let parse_query s =
  if s = "" then []
  else
    String.split_on_char '&' s
    |> List.filter_map (fun kv ->
           if kv = "" then None
           else
             match String.index_opt kv '=' with
             | None -> Some (percent_decode ~plus_space:true kv, "")
             | Some i ->
                 Some
                   ( percent_decode ~plus_space:true (String.sub kv 0 i),
                     percent_decode ~plus_space:true
                       (String.sub kv (i + 1) (String.length kv - i - 1)) ))

(* ------------------------------------------------------------------ *)
(* Head parsing                                                        *)
(* ------------------------------------------------------------------ *)

(* Find the end of the head: the first blank line. Accepts CRLF and bare
   LF line endings. Returns [Some (head, rest_offset)] where [head] still
   contains its line terminators. *)
let find_head_end buf =
  let n = String.length buf in
  let rec scan i =
    if i >= n then None
    else
      match String.index_from_opt buf i '\n' with
      | None -> None
      | Some j ->
          if j + 1 < n && buf.[j + 1] = '\n' then Some (j + 2)
          else if j + 2 < n && buf.[j + 1] = '\r' && buf.[j + 2] = '\n' then
            Some (j + 3)
          else scan (j + 1)
  in
  (* A head that *starts* with a blank line is its own terminator. *)
  if n >= 1 && buf.[0] = '\n' then Some 1
  else if n >= 2 && buf.[0] = '\r' && buf.[1] = '\n' then Some 2
  else scan 0

let strip_cr s =
  let n = String.length s in
  if n > 0 && s.[n - 1] = '\r' then String.sub s 0 (n - 1) else s

let is_upper_token s =
  s <> ""
  && String.length s <= 32
  && String.for_all (function 'A' .. 'Z' -> true | _ -> false) s

let has_ctl s =
  String.exists (fun ch -> Char.code ch < 0x20 || Char.code ch = 0x7f) s

let valid_header_name s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true
         | '!' | '#' | '$' | '%' | '&' | '\'' | '*' | '+' | '-' | '.' | '^'
         | '_' | '`' | '|' | '~' ->
             true
         | _ -> false)
       s

let max_headers = 128

let parse_request_line line =
  match String.split_on_char ' ' line with
  | [ meth; target; ver ] ->
      if not (is_upper_token meth) then raise (Fail (Bad "bad method"));
      if target = "" || not (target.[0] = '/' || target = "*") then
        raise (Fail (Bad "bad request target"));
      if has_ctl target then raise (Fail (Bad "control byte in target"));
      let version =
        match ver with
        | "HTTP/1.1" -> V11
        | "HTTP/1.0" -> V10
        | _ -> raise (Fail (Bad "unsupported HTTP version"))
      in
      (meth, target, version)
  | _ -> raise (Fail (Bad "malformed request line"))

let parse_headers lines =
  if List.length lines > max_headers then raise (Fail (Bad "too many headers"));
  List.map
    (fun line ->
      if line = "" then raise (Fail (Bad "empty header line"));
      if line.[0] = ' ' || line.[0] = '\t' then
        raise (Fail (Bad "obsolete line folding"));
      match String.index_opt line ':' with
      | None -> raise (Fail (Bad "header without colon"))
      | Some i ->
          let name = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          if not (valid_header_name name) then
            raise (Fail (Bad "invalid header name"));
          let value = String.trim value in
          if has_ctl value then raise (Fail (Bad "control byte in header"));
          (String.lowercase_ascii name, value))
    lines

let strict_int_of_digits s =
  if s = "" || String.length s > 18 then None
  else if not (String.for_all (function '0' .. '9' -> true | _ -> false) s)
  then None
  else Some (int_of_string s)

let content_length headers =
  match
    List.filter_map
      (fun (n, v) -> if n = "content-length" then Some v else None)
      headers
  with
  | [] -> None
  | v :: rest ->
      if not (List.for_all (String.equal v) rest) then
        raise (Fail (Bad "conflicting content-length"));
      (* A single header may itself hold a comma list. *)
      let parts = String.split_on_char ',' v |> List.map String.trim in
      let v = List.hd parts in
      if not (List.for_all (String.equal v) parts) then
        raise (Fail (Bad "conflicting content-length"));
      (match strict_int_of_digits v with
      | None -> raise (Fail (Bad "invalid content-length"))
      | Some n -> Some n)

(* ------------------------------------------------------------------ *)
(* Bodies                                                              *)
(* ------------------------------------------------------------------ *)

(* The next [n] bytes. Beyond what is buffered they are read straight
   into one string of that size, never past its end, so a large body
   costs one allocation and no re-copying. *)
let read_exact c n =
  let have = String.length c.buf in
  if have >= n then take c n
  else begin
    let dst = Bytes.create n in
    Bytes.blit_string c.buf 0 dst 0 have;
    c.buf <- "";
    let off = ref have in
    while !off < n do
      off :=
        !off + read_some c ~timeout:c.mid_read ~started:true dst !off (n - !off)
    done;
    Bytes.unsafe_to_string dst
  end

(* Append the next [n] bytes to [b]: a chunk goes into the body's one
   buffer without a string of its own. *)
let read_into c b n =
  let have = Int.min n (String.length c.buf) in
  if have > 0 then begin
    Buffer.add_substring b c.buf 0 have;
    c.buf <- String.sub c.buf have (String.length c.buf - have)
  end;
  let left = ref (n - have) in
  while !left > 0 do
    let got =
      read_some c ~timeout:c.mid_read ~started:true c.scratch 0
        (Int.min !left (Bytes.length c.scratch))
    in
    Buffer.add_subbytes b c.scratch 0 got;
    left := !left - got
  done

(* Read one (CR)LF-terminated line for chunked framing. *)
let read_line c ~cap =
  let rec find () =
    match String.index_opt c.buf '\n' with
    | Some i -> i
    | None ->
        if String.length c.buf > cap then raise (Fail (Bad "chunk line too long"));
        refill c ~timeout:c.mid_read ~started:true;
        find ()
  in
  let i = find () in
  let line = take c (i + 1) in
  strip_cr (String.sub line 0 (String.length line - 1))

let chunk_size line =
  let hex = match String.index_opt line ';' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let hex = String.trim hex in
  if hex = "" || String.length hex > 8 then raise (Fail (Bad "bad chunk size"));
  if not (String.for_all (fun ch -> hex_val ch <> None) hex) then
    raise (Fail (Bad "bad chunk size"));
  int_of_string ("0x" ^ hex)

let read_chunked c ~max_body =
  let b = Buffer.create 1024 in
  let rec loop () =
    let size = chunk_size (read_line c ~cap:256) in
    if size = 0 then begin
      (* Trailers: lines until a blank one, read and dropped. *)
      let rec trailers n =
        if n > max_headers then raise (Fail (Bad "too many trailers"));
        let line = read_line c ~cap:4096 in
        if line <> "" then trailers (n + 1)
      in
      trailers 0
    end
    else begin
      if Buffer.length b + size > max_body then raise (Fail Body_too_large);
      read_into c b size;
      (* terminator: CRLF, with a bare LF tolerated *)
      (match read_exact c 1 with
      | "\n" -> ()
      | "\r" ->
          if read_exact c 1 <> "\n" then
            raise (Fail (Bad "bad chunk terminator"))
      | _ -> raise (Fail (Bad "bad chunk terminator")));
      loop ()
    end
  in
  loop ();
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* read_request                                                        *)
(* ------------------------------------------------------------------ *)

let read_request ~idle ~max_head ~max_body c =
  try
    (* 1. accumulate the head *)
    let rec head_loop started =
      match find_head_end c.buf with
      | Some fin ->
          if fin > max_head then raise (Fail Head_too_large);
          take c fin
      | None ->
          if String.length c.buf > max_head then raise (Fail Head_too_large);
          let started = started || String.length c.buf > 0 in
          refill c
            ~timeout:(if started then c.mid_read else idle)
            ~started;
          head_loop started
    in
    let head = head_loop false in
    let lines =
      String.split_on_char '\n' head
      |> List.map strip_cr
      |> List.filter (fun l -> l <> "")
    in
    (match lines with
    | [] -> raise (Fail (Bad "empty request"))
    | request_line :: header_lines ->
        let meth, target, version = parse_request_line request_line in
        let headers = parse_headers header_lines in
        (* 2. the body *)
        let te =
          List.filter_map
            (fun (n, v) ->
              if n = "transfer-encoding" then Some (String.lowercase_ascii v)
              else None)
            headers
        in
        let body =
          match te with
          | [] | [ "identity" ] -> (
              match content_length headers with
              | None -> ""
              | Some n ->
                  if n > max_body then raise (Fail Body_too_large);
                  read_exact c n)
          | [ "chunked" ] ->
              if content_length headers <> None then
                raise (Fail (Bad "both content-length and transfer-encoding"));
              read_chunked c ~max_body
          | _ -> raise (Fail (Bad "unsupported transfer-encoding"))
        in
        (* 3. split target into path + query *)
        let path, query =
          match String.index_opt target '?' with
          | None -> (percent_decode target, [])
          | Some i ->
              ( percent_decode (String.sub target 0 i),
                parse_query
                  (String.sub target (i + 1) (String.length target - i - 1)) )
        in
        Ok { meth; target; path; query; version; headers; body; client = c.who })
  with
  | Fail e -> Error e
  | Invalid_argument _ | Failure _ -> Error (Bad "malformed request")

(* ------------------------------------------------------------------ *)
(* write_response                                                      *)
(* ------------------------------------------------------------------ *)

let write_all c s =
  (match Kit.Fault.net "serve.write" with
  | Some Kit.Fault.Torn ->
      (* Deliver a genuinely torn response: a prefix of the bytes, then a
         hard close — the peer sees a short body, not a clean error. *)
      let keep = max 1 (String.length s / 2) in
      (try ignore (Unix.write_substring c.fd s 0 keep)
       with Unix.Unix_error _ -> ());
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      raise Exit
  | Some Kit.Fault.Reset ->
      (try Unix.shutdown c.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      raise Exit
  | Some Kit.Fault.Stall ->
      (* The peer stops reading and our send buffer is full: burn the
         write budget, then fail the write like SO_SNDTIMEO would. *)
      Unix.sleepf (Float.min c.send_timeout 30.);
      raise Exit
  | _ -> ());
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write c.fd b !off (n - !off) in
    if w <= 0 then raise Exit;
    off := !off + w
  done

let write_response c ~keep_alive r =
  let b = Buffer.create (256 + String.length r.body) in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\n" r.status (reason r.status));
  Buffer.add_string b "Server: hyperbenchd\r\n";
  List.iter
    (fun (n, v) ->
      let lo = String.lowercase_ascii n in
      if lo <> "content-length" && lo <> "connection" then
        Buffer.add_string b (Printf.sprintf "%s: %s\r\n" n v))
    r.headers;
  Buffer.add_string b
    (Printf.sprintf "Content-Length: %d\r\n" (String.length r.body));
  Buffer.add_string b
    (if keep_alive then "Connection: keep-alive\r\n"
     else "Connection: close\r\n");
  Buffer.add_string b "\r\n";
  Buffer.add_string b r.body;
  try
    write_all c (Buffer.contents b);
    true
  with Exit | Unix.Unix_error _ -> false
