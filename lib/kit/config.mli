(** Every [HB_*] environment knob of the tool, in one table.

    Each knob has a name, a documented default, a doc line and a
    validator; README's "Environment knobs" table lists the same names
    and defaults (a test keeps the two in step). The typed accessors
    re-read the environment on every call, so a [putenv] takes effect at
    once. An empty value reads as unset.

    A set value that fails its validator is never replaced by the
    default: its accessor raises
    [Invalid_argument "HB_X: expected <what>, got \"<value>\""], and
    {!check} reports every such value before a program does any work. *)

type knob = {
  name : string;
  default : string;  (** as documented, e.g. ["all cores"] or ["unset"] *)
  doc : string;
}

val knobs : knob list
(** The table: 13 knobs, in README order. *)

val errors : unit -> string list
(** One ["HB_X: expected <what>, got \"<value>\""] message per malformed
    knob in the environment, in table order. *)

val unknown : unit -> string list
(** The [HB_*] names set to a non-empty value in the environment that
    {!knobs} does not list, sorted. *)

val check : prog:string -> unit
(** The start-up check of [hyperbench] and [bench/main.exe]. Prints
    ["prog: <error>"] on stderr for each of {!errors} and
    ["prog: warning: unknown knob HB_X"] for each of {!unknown}; exits 1
    when any knob is malformed; otherwise arms {!Fault} from
    [HB_FAULT]. *)

(** {2 Typed accessors}

    One per knob: the value, its documented range, then its default.
    Each raises [Invalid_argument] naming its knob on a malformed
    value. *)

val jobs : unit -> int  (** [HB_JOBS], >= 1; all cores *)

val mem_mb : unit -> int option  (** [HB_MEM_MB], >= 1; [None] *)

val wall : unit -> float option  (** [HB_WALL] seconds, > 0; [None] *)

val cache : unit -> string option  (** [HB_CACHE], absent or a directory; [None] *)

val fault : unit -> string option  (** [HB_FAULT], a valid {!Fault} spec; [None] *)

val perf_iters : unit -> int  (** [HB_PERF_ITERS], >= 1; 10000 *)

val gate : unit -> string option  (** [HB_GATE], an existing file; [None] *)

val idle : unit -> float  (** [HB_IDLE] seconds, >= 0; 5.0 *)

val read_timeout : unit -> float  (** [HB_READ_TIMEOUT] seconds, >= 0; 10.0 *)

val write_timeout : unit -> float  (** [HB_WRITE_TIMEOUT] seconds, >= 0; 30.0 *)

val drain : unit -> float  (** [HB_DRAIN] seconds, >= 0; 0.25 *)

val parse_depth : unit -> int  (** [HB_PARSE_DEPTH], >= 1; 200 *)

val max_input : unit -> int  (** [HB_MAX_INPUT] bytes, >= 1; 64 MiB *)
