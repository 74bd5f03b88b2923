type 'a t =
  | Ok of 'a
  | Timeout
  | Out_of_memory
  | Stack_overflow
  | Crash of string

let classify e ~backtrace =
  match e with
  | Deadline.Timed_out -> Timeout
  | Stdlib.Out_of_memory -> Out_of_memory
  | Stdlib.Stack_overflow -> Stack_overflow
  | e ->
      let msg = Printexc.to_string e in
      Crash (if backtrace = "" then msg else msg ^ "\n" ^ backtrace)

let is_ok = function Ok _ -> true | _ -> false

let map f = function
  | Ok v -> Ok (f v)
  | (Timeout | Out_of_memory | Stack_overflow | Crash _) as o -> o

let get = function Ok v -> Some v | _ -> None

let label = function
  | Ok _ -> "ok"
  | Timeout -> "timeout"
  | Out_of_memory -> "out_of_memory"
  | Stack_overflow -> "stack_overflow"
  | Crash _ -> "crash"

let detail = function Crash m -> m | _ -> ""

let of_label l ~detail =
  match l with
  | "timeout" -> Some Timeout
  | "out_of_memory" -> Some Out_of_memory
  | "stack_overflow" -> Some Stack_overflow
  | "crash" -> Some (Crash detail)
  | _ -> None
