(** Seeded adversarial fuzzing of the four parsing frontends.

    Each case is generated deterministically from [(seed, index)] via
    {!Kit.Fuzz} — roughly one case in four is a byte-level mutation of
    a valid corpus input, the rest are grammar-adversarial — and parsed
    under {!Kit.Guard.run}. The invariant is crash-freedom: every case
    must come back [Ok] or structured [Error], and every [Error] must
    render as the daemon's 422 body; a [Stack_overflow],
    [Out_of_memory] or any uncaught exception is a failure, recorded
    with a ddmin-shrunk reproducer. *)

type format = Sql | Xcsp | Hg | Hbx

val all_formats : format list

val format_name : format -> string

val format_of_string : string -> format option
(** Accepts ["sql"], ["xcsp"], ["hg"], ["hbx"]. *)

type failure = {
  index : int;  (** case number within the run *)
  outcome : string;  (** Kit.Outcome label, e.g. ["crash"] *)
  input : string;  (** the offending input, verbatim *)
  shrunk : string;  (** ddmin-reduced input still reproducing it *)
}

type summary = {
  fmt : format;
  cases : int;
  parsed : int;  (** parser returned [Ok] *)
  rejected : int;
      (** parser returned a structured [Error], rendered as the daemon's
          422 body ({!Service.rejection}) *)
  failures : failure list;  (** crashes — empty on a healthy frontend *)
}

val run : format -> cases:int -> seed:int -> summary
(** Deterministic: same [(format, cases, seed)] → same summary. Honours
    [HB_MEM_MB] through {!Kit.Guard.run}. *)
