(** HTTP/1.1 over raw [Unix] sockets: the wire layer of [hyperbenchd].

    Hand-rolled on purpose — the container has no HTTP dependency and
    the daemon needs exact control over limits and failure modes. The
    parser is strict where laxity would be ambiguous (conflicting
    [Content-Length], obsolete line folding, unknown transfer codings
    are all hard errors) and lenient where it is safe (lone [LF] line
    endings are accepted alongside [CRLF]). Every way a peer can
    misbehave maps to a {!read_error}, never an exception: the server
    turns them into 400/408/413/431 responses and a close, and the
    fuzz suite in [test/test_serve.ml] holds it to that. *)

type version = V10 | V11

type request = {
  meth : string;  (** uppercase token, e.g. ["POST"] *)
  target : string;  (** the raw request target *)
  path : string;  (** percent-decoded path, no query string *)
  query : (string * string) list;  (** decoded query parameters, in order *)
  version : version;
  headers : (string * string) list;
      (** names lowercased, values trimmed, in order *)
  body : string;
  client : string;  (** peer address, the rate-limiter key *)
}

type response = {
  status : int;
  headers : (string * string) list;
      (** extra headers; [Content-Length] and [Connection] are always
          synthesised by {!write_response} and ignored here *)
  body : string;
}

val response :
  ?content_type:string -> ?headers:(string * string) list -> int -> string ->
  response
(** [response status body]; [content_type] defaults to
    ["application/json"]. *)

val error_body : int -> string -> string
(** [{"error":status,"message":msg}] — the uniform JSON error payload. *)

val header : request -> string -> string option
(** First header with this (lowercase) name. *)

val param : request -> string -> string option
(** First query parameter with this name. *)

val keep_alive_requested : request -> bool
(** HTTP/1.1 defaults to keep-alive unless [Connection: close];
    HTTP/1.0 defaults to close unless [Connection: keep-alive]. *)

(** {1 Connections} *)

type conn
(** One TCP connection with its buffer of read-but-unconsumed bytes. *)

val conn :
  ?client:string ->
  ?mid_read_timeout:float ->
  ?write_timeout:float ->
  ?abort:(unit -> bool) ->
  ?grace:float ->
  Unix.file_descr ->
  conn
(** [mid_read_timeout] (default 10 s) bounds each read once a request
    has started — the slowloris budget; [write_timeout] (default 30 s)
    bounds each response write. [abort] is polled while a read waits
    (the server passes its draining flag): once it turns true, the
    blocked read gets only [grace] more seconds (default: no bound)
    before timing out, so a mid-body-stalled peer cannot pin drain for
    its whole stall budget.

    Chaos sites: reads consult [Kit.Fault.net "serve.read"] (a fired
    [stall] keeps the socket silent until the applicable timeout;
    [reset]/[torn] surface as an abrupt close) and writes consult
    ["serve.write"] ([torn] sends a prefix then hard-closes, so the peer
    observes a genuinely torn response). Disarmed cost: one atomic load
    per read/write. *)

val client : conn -> string

val buffered : conn -> bool
(** Unconsumed input already sits in the buffer — after a response this
    means the peer pipelined another request. *)

type read_error =
  | Eof  (** peer closed before sending any byte of a request *)
  | Idle_timeout  (** no request arrived within [idle] seconds *)
  | Mid_timeout  (** peer stalled in the middle of a request — 408 *)
  | Bad of string  (** malformed request — 400, connection untrusted *)
  | Head_too_large  (** request line + headers exceed [max_head] — 431 *)
  | Body_too_large  (** declared or chunked body exceeds [max_body] — 413 *)

val read_request :
  idle:float -> max_head:int -> max_body:int -> conn ->
  (request, read_error) result
(** Read and parse one request. [idle] bounds the wait for the {e first}
    byte (keep-alive gaps); once a request has started, stalls longer
    than the built-in per-read timeout surface as {!Mid_timeout}.
    Supports [Content-Length] and chunked transfer-encoding bodies
    (trailers are read and dropped). Never raises on peer behaviour. *)

val write_response : conn -> keep_alive:bool -> response -> bool
(** Serialise and send; synthesises [Content-Length] and [Connection]
    (and a [Server] header). [false] when the peer is gone (reset, send
    timeout) — the caller should close. Never raises. *)
