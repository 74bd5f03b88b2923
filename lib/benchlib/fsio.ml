(* Shared filesystem helpers for the persistence layer (repository,
   result cache): recursive mkdir, crash-safe whole-file writes
   (temp + fsync + rename) and safe whole-file reads. *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir -> () (* lost a creation race *)
  end

(* Unique temp names: concurrent writers of the same path (worker
   processes under --isolate, domains of one pool) must never interleave
   bytes in a shared temp file — each write gets its own and the rename
   decides the winner. *)
let tmp_counter = Atomic.make 0

let write_atomic path data =
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add tmp_counter 1)
  in
  let oc = open_out_bin tmp in
  (try
     output_string oc data;
     flush oc;
     (* Some filesystems refuse fsync; durability then degrades to
        flush, matching Journal's behaviour. *)
     (try Unix.fsync (Unix.descr_of_out_channel oc)
      with Unix.Unix_error _ -> ());
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

(* The channel is closed on every path; truncation mid-read surfaces as
   [Error], not an escaped End_of_file. *)
let read_channel path ic =
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      match really_input_string ic (in_channel_length ic) with
      | s -> Ok s
      | exception End_of_file -> Error (path ^ ": truncated file")
      | exception Sys_error m -> Error m)

let read_file path =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic -> read_channel path ic

(* One open decides both existence and content: [Ok None] when no file
   is there. *)
let read_file_opt path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ENOTDIR), _, _) -> Ok None
  | exception Unix.Unix_error (e, _, _) ->
      Error (path ^ ": " ^ Unix.error_message e)
  | fd -> Result.map Option.some (read_channel path (Unix.in_channel_of_descr fd))
