(** Per-task result taxonomy for long-running campaigns.

    A campaign over thousands of instances must survive every way a
    single task can fail: budget expiry, memory exhaustion, runaway
    recursion, or a plain bug. [Outcome.t] is the structured record of
    what happened to one task; {!Guard.run} produces it, and the
    experiment journal persists it. *)

type 'a t =
  | Ok of 'a
  | Timeout  (** the task's {!Deadline} expired ([Timed_out] escaped) *)
  | Out_of_memory
      (** the allocator failed, or the {!Guard} soft memory budget
          ([HB_MEM_MB]) tripped *)
  | Stack_overflow
  | Crash of string
      (** any other exception; the payload is [Printexc.to_string]
          followed by the backtrace when one was recorded *)

val classify : exn -> backtrace:string -> 'a t
(** Map an escaped exception to its non-[Ok] outcome. [backtrace] (may
    be [""]) is appended to the [Crash] payload on its own lines. *)

val is_ok : 'a t -> bool

val map : ('a -> 'b) -> 'a t -> 'b t

val get : 'a t -> 'a option

val label : 'a t -> string
(** Stable one-word tag: ["ok"], ["timeout"], ["out_of_memory"],
    ["stack_overflow"], ["crash"] — the vocabulary of the journal format
    and the CLI summaries. *)

val detail : 'a t -> string
(** The [Crash] payload; [""] for every other case. *)

val of_label : string -> detail:string -> 'a t option
(** Inverse of {!label}/{!detail} for the failure cases; ["ok"] is not
    reconstructible (the payload lives elsewhere) and yields [None], as
    does an unknown label. *)
