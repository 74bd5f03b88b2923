let words_per_mb = 1024 * 1024 / (Sys.word_size / 8)

let with_mem_alarm mb f =
  match mb with
  | None | Some 0 -> f ()
  | Some mb ->
      let limit_words = mb * words_per_mb in
      let alarm =
        Gc.create_alarm (fun () ->
            (* Runs at the end of a major cycle, on the heap-owning side of
               the allocation that finished it; raising here surfaces at
               that allocation point, which is exactly an OOM would. *)
            if (Gc.quick_stat ()).Gc.heap_words > limit_words then
              raise Out_of_memory)
      in
      Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm) f

let run ?mem_mb f =
  let mem_mb = match mem_mb with Some _ as m -> m | None -> Config.mem_mb () in
  match with_mem_alarm mem_mb f with
  | v -> Outcome.Ok v
  | exception Stack_overflow ->
      (* A fresh overflow leaves almost no stack headroom, so classify
         directly without capturing a backtrace — the capture itself
         could overflow again on the way to reporting. *)
      Outcome.Stack_overflow
  | exception e ->
      let backtrace = Printexc.get_backtrace () in
      let outcome = Outcome.classify e ~backtrace in
      (* After an OOM the dead task's heap is garbage but still mapped;
         compact so the survivors don't inherit its footprint. *)
      (match outcome with Outcome.Out_of_memory -> Gc.compact () | _ -> ());
      outcome
