(** Resource bounds for the parsing frontends.

    Every recursive descent in the tool (SQL expressions, XCSP XML
    nesting, HG text, binary codecs) consults these limits so hostile
    nesting yields a clean [Error] instead of [Stack_overflow], and an
    absurdly large payload is refused up front instead of being chewed
    through. The bounds are the knobs {!Config.parse_depth} and
    {!Config.max_input}, re-read on each call, so tests can tighten them
    locally. *)

val check_input : string -> Diag.t option
(** [Some diag] when the input exceeds {!Config.max_input}; the diagnostic
    points at offset 0 and names the knob. *)

val depth_error : at:int -> Diag.t
(** The uniform "nested deeper than N" diagnostic for frontends to
    raise when their own depth counter crosses {!Config.parse_depth}. *)
