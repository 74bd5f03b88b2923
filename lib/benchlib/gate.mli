(** The one threshold grammar of the bench gates.

    A gate file holds one bound per line, [<leg>.<metric> <= <value>] or
    [<leg>.<metric> >= <value>]; [#] starts a comment and blank lines
    are skipped. The leg is the text before the first dot, the metric
    everything after it ([perf.components.words <= 130] bounds the
    metric [components.words] of the [perf] leg). One file serves any
    combination of legs: each leg checks only the lines under its own
    name. *)

type op = Le | Ge

type bound = {
  line : int;  (** 1-based line number in the gate file *)
  leg : string;
  metric : string;
  op : op;
  value : float;
}

val legs : string list
(** The bench legs that produce gateable metrics: [perf] and [serve]. A
    line naming any other leg is a parse error. *)

val parse : file:string -> string -> (bound list, string) result
(** Parse gate-file text, in file order. The error names the first
    malformed line as [file:N: ...]: not three fields, an operator other
    than [<=] / [>=], a key without [leg.] prefix, an unknown leg, or a
    value that is not a finite number. *)

val read : string -> (bound list, string) result
(** {!parse} the file at a path; an unreadable file is an [Error]. *)

val check : bound list -> leg:string -> (string * float list) list -> string list
(** [check bounds ~leg rows] gates the lines of [leg] against its rows,
    one [(metric, values)] pair per metric the leg produces; every value
    of a metric must meet each of its bounds (a metric may carry no
    values, e.g. when no instance qualified). Returns one message per
    violation, empty when the gate passes. A line whose metric the leg
    does not produce is a violation: a typo must not pass silently.
    Lines of other legs are ignored. *)
