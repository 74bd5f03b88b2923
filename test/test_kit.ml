(* Unit and property tests for the foundation kit. *)

module Bitset = Kit.Bitset
module Rational = Kit.Rational
module Rng = Kit.Rng

let bitset_basics () =
  let s = Bitset.of_list 100 [ 3; 5; 99 ] in
  Alcotest.(check bool) "mem 3" true (Bitset.mem 3 s);
  Alcotest.(check bool) "mem 4" false (Bitset.mem 4 s);
  Alcotest.(check int) "cardinal" 3 (Bitset.cardinal s);
  Alcotest.(check (list int)) "to_list" [ 3; 5; 99 ] (Bitset.to_list s);
  let s' = Bitset.remove 5 s in
  Alcotest.(check int) "cardinal after remove" 2 (Bitset.cardinal s');
  Alcotest.(check int) "original untouched" 3 (Bitset.cardinal s);
  Alcotest.(check bool) "is_empty empty" true (Bitset.is_empty (Bitset.empty 10));
  Alcotest.(check int) "full cardinal" 100 (Bitset.cardinal (Bitset.full 100))

let bitset_full_partial_word () =
  (* A universe size not divisible by the word size must not leak bits. *)
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "full %d" n)
        n
        (Bitset.cardinal (Bitset.full n)))
    [ 1; 7; 62; 63; 64; 65; 126; 127 ]

let bitset_set_ops () =
  let a = Bitset.of_list 20 [ 1; 2; 3 ] and b = Bitset.of_list 20 [ 3; 4 ] in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] Bitset.(to_list (union a b));
  Alcotest.(check (list int)) "inter" [ 3 ] Bitset.(to_list (inter a b));
  Alcotest.(check (list int)) "diff" [ 1; 2 ] Bitset.(to_list (diff a b));
  Alcotest.(check bool) "intersects" true (Bitset.intersects a b);
  Alcotest.(check bool)
    "no intersect" false
    (Bitset.intersects a (Bitset.of_list 20 [ 10; 11 ]));
  Alcotest.(check int) "inter_cardinal" 1 (Bitset.inter_cardinal a b);
  Alcotest.(check bool) "subset yes" true (Bitset.subset (Bitset.of_list 20 [ 1; 2 ]) a);
  Alcotest.(check bool) "subset no" false (Bitset.subset b a)

let bitset_universe_mismatch () =
  let a = Bitset.empty 5 and b = Bitset.empty 6 in
  Alcotest.check_raises "mixing universes"
    (Invalid_argument "Bitset: universes differ (5 vs 6)") (fun () ->
      ignore (Bitset.union a b))

let bitset_choose_filter () =
  let s = Bitset.of_list 50 [ 10; 20; 30 ] in
  Alcotest.(check (option int)) "choose" (Some 10) (Bitset.choose s);
  Alcotest.(check (option int)) "choose empty" None (Bitset.choose (Bitset.empty 3));
  Alcotest.(check (list int))
    "filter" [ 20; 30 ]
    (Bitset.to_list (Bitset.filter (fun x -> x >= 20) s));
  Alcotest.(check bool) "for_all" true (Bitset.for_all (fun x -> x mod 10 = 0) s);
  Alcotest.(check bool) "exists" true (Bitset.exists (fun x -> x = 20) s)

(* Property tests: bitsets vs the reference model (sorted int lists). *)
let prop_gen =
  QCheck.Gen.(list_size (int_bound 40) (int_bound 99))

let sorted_dedup l = List.sort_uniq compare l

let prop_roundtrip =
  QCheck.Test.make ~name:"bitset of_list/to_list is sorted dedup" ~count:300
    (QCheck.make prop_gen) (fun l ->
      Bitset.to_list (Bitset.of_list 100 l) = sorted_dedup l)

let prop_union_model =
  QCheck.Test.make ~name:"bitset union matches list model" ~count:300
    (QCheck.make (QCheck.Gen.pair prop_gen prop_gen)) (fun (a, b) ->
      let s = Bitset.union (Bitset.of_list 100 a) (Bitset.of_list 100 b) in
      Bitset.to_list s = sorted_dedup (a @ b))

let prop_inter_model =
  QCheck.Test.make ~name:"bitset inter matches list model" ~count:300
    (QCheck.make (QCheck.Gen.pair prop_gen prop_gen)) (fun (a, b) ->
      let s = Bitset.inter (Bitset.of_list 100 a) (Bitset.of_list 100 b) in
      Bitset.to_list s = sorted_dedup (List.filter (fun x -> List.mem x b) a))

let prop_diff_model =
  QCheck.Test.make ~name:"bitset diff matches list model" ~count:300
    (QCheck.make (QCheck.Gen.pair prop_gen prop_gen)) (fun (a, b) ->
      let s = Bitset.diff (Bitset.of_list 100 a) (Bitset.of_list 100 b) in
      Bitset.to_list s = sorted_dedup (List.filter (fun x -> not (List.mem x b)) a))

let prop_inter_cardinal =
  QCheck.Test.make ~name:"inter_cardinal = cardinal of inter" ~count:300
    (QCheck.make (QCheck.Gen.pair prop_gen prop_gen)) (fun (a, b) ->
      let sa = Bitset.of_list 100 a and sb = Bitset.of_list 100 b in
      Bitset.inter_cardinal sa sb = Bitset.cardinal (Bitset.inter sa sb))

let rational_basics () =
  let half = Rational.make 1 2 and third = Rational.make 1 3 in
  Alcotest.(check string) "add" "5/6" Rational.(to_string (add half third));
  Alcotest.(check string) "sub" "1/6" Rational.(to_string (sub half third));
  Alcotest.(check string) "mul" "1/6" Rational.(to_string (mul half third));
  Alcotest.(check string) "div" "3/2" Rational.(to_string (div half third));
  Alcotest.(check string) "normalisation" "1/2" Rational.(to_string (make 4 8));
  Alcotest.(check string) "negative den" "-1/2" Rational.(to_string (make 4 (-8)));
  Alcotest.(check int) "compare" (-1) (Rational.compare third half);
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Rational.make 1 0))

let rational_floor_ceil () =
  let check name r f c =
    Alcotest.(check int) (name ^ " floor") f (Rational.floor r);
    Alcotest.(check int) (name ^ " ceil") c (Rational.ceil r)
  in
  check "3/2" (Rational.make 3 2) 1 2;
  check "-3/2" (Rational.make (-3) 2) (-2) (-1);
  check "2" (Rational.of_int 2) 2 2;
  check "-2" (Rational.of_int (-2)) (-2) (-2)

let rational_approx () =
  let r = Rational.of_float_approx 1.5 in
  Alcotest.(check string) "1.5 -> 3/2" "3/2" (Rational.to_string r);
  let r = Rational.of_float_approx (4.0 /. 3.0) in
  Alcotest.(check string) "4/3" "4/3" (Rational.to_string r);
  let r = Rational.of_float_approx 2.0 in
  Alcotest.(check string) "integral" "2" (Rational.to_string r)

let rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs g = List.init 20 (fun _ -> Rng.int g 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (xs a) (xs b);
  let c = Rng.create 43 in
  Alcotest.(check bool) "different seed, different stream" true (xs (Rng.create 42) <> xs c)

let rng_bounds () =
  let g = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int g 10 in
    if x < 0 || x >= 10 then Alcotest.fail "Rng.int out of bounds"
  done;
  for _ = 1 to 1000 do
    let x = Rng.int_in g 5 8 in
    if x < 5 || x > 8 then Alcotest.fail "Rng.int_in out of bounds"
  done;
  for _ = 1 to 100 do
    let f = Rng.float g in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "Rng.float out of bounds"
  done

let rng_sample () =
  let g = Rng.create 11 in
  let s = Rng.sample g 20 10 in
  Alcotest.(check int) "sample size" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun x -> if x < 0 || x >= 20 then Alcotest.fail "sample range") s

let union_find () =
  let uf = Kit.Union_find.create 10 in
  Kit.Union_find.union uf 0 1;
  Kit.Union_find.union uf 1 2;
  Kit.Union_find.union uf 5 6;
  Alcotest.(check bool) "same 0 2" true (Kit.Union_find.same uf 0 2);
  Alcotest.(check bool) "not same 0 5" false (Kit.Union_find.same uf 0 5);
  let groups =
    Kit.Union_find.groups uf |> Array.to_list
    |> List.filter (fun g -> g <> [])
    |> List.map (List.sort compare)
    |> List.sort compare
  in
  Alcotest.(check int) "group count" 7 (List.length groups);
  Alcotest.(check bool) "has 012" true (List.mem [ 0; 1; 2 ] groups);
  Alcotest.(check bool) "has 56" true (List.mem [ 5; 6 ] groups)

let names () =
  let t = Kit.Names.create () in
  let a = Kit.Names.intern t "alpha" in
  let b = Kit.Names.intern t "beta" in
  let a' = Kit.Names.intern t "alpha" in
  Alcotest.(check int) "stable" a a';
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check string) "name" "beta" (Kit.Names.name t b);
  Alcotest.(check int) "count" 2 (Kit.Names.count t);
  Alcotest.(check (option int)) "find" (Some a) (Kit.Names.find_opt t "alpha");
  Alcotest.(check (option int)) "find missing" None (Kit.Names.find_opt t "gamma")

let deadline_fuel () =
  let d = Kit.Deadline.of_fuel 5 in
  for _ = 1 to 4 do Kit.Deadline.check d done;
  Alcotest.check_raises "fuel exhausted" Kit.Deadline.Timed_out (fun () ->
      Kit.Deadline.check d)

let deadline_none () =
  for _ = 1 to 10_000 do Kit.Deadline.check Kit.Deadline.none done;
  Alcotest.(check bool) "never expires" false (Kit.Deadline.expired Kit.Deadline.none)

let deadline_wall_coherent () =
  let d = Kit.Deadline.of_seconds 60.0 in
  Alcotest.(check bool) "fresh budget alive" false (Kit.Deadline.expired d);
  Alcotest.(check bool) "elapsed sane" true (Kit.Deadline.elapsed d < 1.0);
  (* started and the wall deadline come from a single clock reading, so a
     zero-second budget is expired from the very start. *)
  Alcotest.(check bool) "zero budget expired" true
    (Kit.Deadline.expired (Kit.Deadline.of_seconds 0.0))

let deadline_fuel_atomic () =
  (* Four domains hammer one fuel deadline: exactly n - 1 checks succeed
     in total before the n-th raises, whatever the interleaving. *)
  let d = Kit.Deadline.of_fuel 100 in
  let ok = Atomic.make 0 in
  let worker () =
    for _ = 1 to 100 do
      match Kit.Deadline.check d with
      | () -> Atomic.incr ok
      | exception Kit.Deadline.Timed_out -> ()
    done
  in
  let domains = Array.init 4 (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  Alcotest.(check int) "successful checks" 99 (Atomic.get ok);
  Alcotest.(check bool) "expired afterwards" true (Kit.Deadline.expired d)

let deadline_cancel () =
  let c = Kit.Deadline.new_cancel () in
  let d = Kit.Deadline.with_cancel c (Kit.Deadline.of_seconds 3600.0) in
  Kit.Deadline.check d;
  Alcotest.(check bool) "not yet cancelled" false (Kit.Deadline.cancelled d);
  Kit.Deadline.cancel c;
  Alcotest.(check bool) "flag set" true (Kit.Deadline.is_cancelled c);
  Alcotest.(check bool) "deadline cancelled" true (Kit.Deadline.cancelled d);
  Alcotest.(check bool) "expired" true (Kit.Deadline.expired d);
  Alcotest.check_raises "check raises" Kit.Deadline.Timed_out (fun () ->
      Kit.Deadline.check d);
  (* with_cancel over [none] is a pure cancellation token. *)
  Alcotest.check_raises "token raises" Kit.Deadline.Timed_out (fun () ->
      Kit.Deadline.check (Kit.Deadline.with_cancel c Kit.Deadline.none))

let deadline_cancel_across_domains () =
  (* One domain spins on a no-budget deadline; the main domain aborts it
     through the shared flag. *)
  let c = Kit.Deadline.new_cancel () in
  let d = Kit.Deadline.with_cancel c Kit.Deadline.none in
  let spinner =
    Domain.spawn (fun () ->
        let rec spin () =
          match Kit.Deadline.check d with
          | () -> spin ()
          | exception Kit.Deadline.Timed_out -> `Cancelled
        in
        spin ())
  in
  Kit.Deadline.cancel c;
  Alcotest.(check bool) "sibling aborted" true (Domain.join spinner = `Cancelled)

let pool_matches_sequential () =
  let tasks = Array.init 100 (fun i -> i) in
  let f x = x * x in
  let seq = Kit.Pool.run ~jobs:1 f tasks in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        seq
        (Kit.Pool.run ~jobs f tasks))
    [ 2; 3; 7 ]

let pool_captures_exceptions () =
  let f x = if x mod 2 = 0 then failwith "even" else x in
  let results = Kit.Pool.run_result ~jobs:3 f [| 1; 2; 3; 4 |] in
  (match results with
  | [| Ok 1; Error (Failure _); Ok 3; Error (Failure _) |] -> ()
  | _ -> Alcotest.fail "per-task results mangled");
  Alcotest.check_raises "run re-raises the first failure" (Failure "even")
    (fun () -> ignore (Kit.Pool.run ~jobs:2 f [| 1; 2; 3; 4 |]))

let pool_empty_and_default () =
  Alcotest.(check (array int)) "empty" [||] (Kit.Pool.run ~jobs:8 (fun x -> x) [||]);
  Alcotest.(check bool) "default jobs positive" true (Kit.Config.jobs () >= 1)

(* Every metrics test flips the global [enabled] switch, so restore it (and
   zero the registry) on all exits. *)
let with_metrics f =
  Kit.Metrics.reset ();
  Kit.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Kit.Metrics.enabled := false;
      Kit.Metrics.reset ())
    f

let metrics_merge_across_domains () =
  with_metrics (fun () ->
      let c = Kit.Metrics.counter "test.merge" in
      let worker () =
        for _ = 1 to 1000 do
          Kit.Metrics.incr c
        done;
        Kit.Metrics.add c 5
      in
      let ds = List.init 4 (fun _ -> Domain.spawn worker) in
      Kit.Metrics.incr c;
      List.iter Domain.join ds;
      let snap = Kit.Metrics.snapshot () in
      Alcotest.(check int)
        "4 x 1005 from domains + 1 from main" 4021
        (Kit.Metrics.get snap "test.merge"))

let metrics_span_nesting () =
  with_metrics (fun () ->
      let outer = Kit.Metrics.timer "test.outer" in
      let inner = Kit.Metrics.timer "test.inner" in
      let r =
        Kit.Metrics.span outer (fun () ->
            Kit.Metrics.span inner (fun () -> ());
            Kit.Metrics.span inner (fun () -> ());
            17)
      in
      Alcotest.(check int) "span is transparent" 17 r;
      (* A span that raises must still record its time. *)
      (try Kit.Metrics.span outer (fun () -> failwith "boom") with
      | Failure _ -> ());
      let snap = Kit.Metrics.snapshot () in
      let n_outer, s_outer = Kit.Metrics.get_timer snap "test.outer" in
      let n_inner, s_inner = Kit.Metrics.get_timer snap "test.inner" in
      Alcotest.(check int) "outer spans (incl. raising one)" 2 n_outer;
      Alcotest.(check int) "inner spans" 2 n_inner;
      Alcotest.(check bool) "outer covers inner" true (s_outer >= s_inner);
      Alcotest.(check bool) "times non-negative" true (s_inner >= 0.0))

let metrics_reset () =
  with_metrics (fun () ->
      let c = Kit.Metrics.counter "test.reset" in
      let h = Kit.Metrics.histogram "test.reset_hist" ~buckets:[| 1; 2 |] in
      Kit.Metrics.add c 42;
      Kit.Metrics.observe h 1;
      Alcotest.(check int)
        "before reset" 42
        (Kit.Metrics.get (Kit.Metrics.snapshot ()) "test.reset");
      Kit.Metrics.reset ();
      let snap = Kit.Metrics.snapshot () in
      Alcotest.(check int) "counter zeroed" 0 (Kit.Metrics.get snap "test.reset");
      (match Kit.Metrics.get_histogram snap "test.reset_hist" with
      | Some (_, counts) ->
          Alcotest.(check int) "histogram zeroed" 0 (Array.fold_left ( + ) 0 counts)
      | None -> Alcotest.fail "histogram vanished from registry");
      (* The interned handle survives a reset and keeps counting. *)
      Kit.Metrics.incr c;
      Alcotest.(check int)
        "counts again after reset" 1
        (Kit.Metrics.get (Kit.Metrics.snapshot ()) "test.reset"))

let metrics_disabled_fast_path () =
  (* With the registry disabled, the record calls must not allocate: the
     hot loops of Detk run with metrics compiled in unconditionally. The
     threshold leaves slack for the Gc.minor_words probe itself. *)
  Kit.Metrics.reset ();
  let c = Kit.Metrics.counter "test.disabled" in
  let t = Kit.Metrics.timer "test.disabled_t" in
  Alcotest.(check bool) "disabled by default" false !Kit.Metrics.enabled;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Kit.Metrics.incr c;
    Kit.Metrics.add c 3
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "counter path allocation-free (%.0f words)" (w1 -. w0))
    true
    (w1 -. w0 < 256.0);
  ignore (Kit.Metrics.span t (fun () -> 1));
  Alcotest.(check int)
    "nothing recorded while disabled" 0
    (Kit.Metrics.get (Kit.Metrics.snapshot ()) "test.disabled")

let metrics_local_delta () =
  with_metrics (fun () ->
      let c = Kit.Metrics.counter "test.delta" in
      Kit.Metrics.add c 7;
      let r, d =
        Kit.Metrics.local_delta (fun () ->
            Kit.Metrics.add c 3;
            "done")
      in
      Alcotest.(check string) "result passthrough" "done" r;
      Alcotest.(check int) "delta sees only the inner add" 3
        (Kit.Metrics.get d "test.delta");
      Alcotest.(check int) "global total keeps both" 10
        (Kit.Metrics.get (Kit.Metrics.snapshot ()) "test.delta"))

let metrics_absorb () =
  with_metrics (fun () ->
      let c = Kit.Metrics.counter "test.absorb.c" in
      let t = Kit.Metrics.timer "test.absorb.t" in
      let h = Kit.Metrics.histogram "test.absorb.h" ~buckets:[| 1; 10 |] in
      Kit.Metrics.add c 2;
      (* A delta measured elsewhere (in real use: inside a forked Proc
         worker, marshalled back with the result)... *)
      let (), d =
        Kit.Metrics.local_delta (fun () ->
            Kit.Metrics.add c 5;
            Kit.Metrics.add_seconds t 0.25;
            Kit.Metrics.observe h 3)
      in
      Kit.Metrics.reset ();
      Kit.Metrics.add c 1;
      (* ...replayed into the live registry adds on top. *)
      Kit.Metrics.absorb d;
      let snap = Kit.Metrics.snapshot () in
      Alcotest.(check int) "counter summed" 6 (Kit.Metrics.get snap "test.absorb.c");
      let spans, secs = Kit.Metrics.get_timer snap "test.absorb.t" in
      Alcotest.(check int) "timer spans" 1 spans;
      Alcotest.(check (float 1e-9)) "timer seconds" 0.25 secs;
      match Kit.Metrics.get_histogram snap "test.absorb.h" with
      | Some (_, counts) ->
          Alcotest.(check (array int)) "histogram cells" [| 0; 1; 0 |] counts
      | None -> Alcotest.fail "histogram missing after absorb")

(* --- outcome / guard --------------------------------------------------------- *)

let outcome_classify () =
  let t = Kit.Outcome.classify Kit.Deadline.Timed_out ~backtrace:"" in
  Alcotest.(check bool) "timeout" true (t = Kit.Outcome.Timeout);
  Alcotest.(check bool) "oom" true
    (Kit.Outcome.classify Stdlib.Out_of_memory ~backtrace:""
    = Kit.Outcome.Out_of_memory);
  Alcotest.(check bool) "stack overflow" true
    (Kit.Outcome.classify Stdlib.Stack_overflow ~backtrace:""
    = Kit.Outcome.Stack_overflow);
  (match Kit.Outcome.classify (Failure "boom") ~backtrace:"bt" with
  | Kit.Outcome.Crash s ->
      Alcotest.(check bool) "crash carries message and backtrace" true
        (String.length s > 4 && String.sub s 0 (String.length s) <> ""
        && s <> "boom" (* backtrace appended *))
  | _ -> Alcotest.fail "Failure should classify as Crash")

let outcome_labels_roundtrip () =
  let failures : unit Kit.Outcome.t list =
    [
      Kit.Outcome.Timeout; Kit.Outcome.Out_of_memory;
      Kit.Outcome.Stack_overflow; Kit.Outcome.Crash "why";
    ]
  in
  List.iter
    (fun o ->
      match
        Kit.Outcome.of_label (Kit.Outcome.label o)
          ~detail:(Kit.Outcome.detail o)
      with
      | Some o' ->
          Alcotest.(check bool) (Kit.Outcome.label o ^ " round-trips") true
            (o = o')
      | None -> Alcotest.failf "label %s did not decode" (Kit.Outcome.label o))
    failures;
  Alcotest.(check bool) "ok is not reconstructible" true
    (Kit.Outcome.of_label "ok" ~detail:"" = (None : unit Kit.Outcome.t option));
  Alcotest.(check bool) "unknown label rejected" true
    (Kit.Outcome.of_label "exploded" ~detail:""
    = (None : unit Kit.Outcome.t option))

let guard_containment () =
  Alcotest.(check bool) "ok" true
    (Kit.Guard.run (fun () -> 42) = Kit.Outcome.Ok 42);
  Alcotest.(check bool) "leaked deadline" true
    (Kit.Guard.run (fun () -> raise Kit.Deadline.Timed_out)
    = Kit.Outcome.Timeout);
  Alcotest.(check bool) "stack overflow" true
    (Kit.Guard.run (fun () -> raise Stdlib.Stack_overflow)
    = Kit.Outcome.Stack_overflow);
  Alcotest.(check bool) "out of memory" true
    (Kit.Guard.run (fun () -> raise Stdlib.Out_of_memory)
    = Kit.Outcome.Out_of_memory);
  (match Kit.Guard.run (fun () -> failwith "boom") with
  | Kit.Outcome.Crash _ -> ()
  | _ -> Alcotest.fail "failure should be a crash");
  (* The guard frame must keep the caller alive: run again after each. *)
  Alcotest.(check bool) "still alive" true
    (Kit.Guard.run (fun () -> "fine") = Kit.Outcome.Ok "fine")

let guard_mem_budget () =
  (* Allocate far past a tiny soft budget: the Gc alarm must turn it into
     Out_of_memory instead of eating the machine. If the alarm never
     fires the loop terminates and the test fails on the Ok. *)
  let r =
    Kit.Guard.run ~mem_mb:2 (fun () ->
        let acc = ref [] in
        for i = 0 to 30_000 do
          acc := Array.make 128 i :: !acc
        done;
        Array.length (List.hd (Sys.opaque_identity !acc)))
  in
  (match r with
  | Kit.Outcome.Out_of_memory -> ()
  | o -> Alcotest.failf "expected out_of_memory, got %s" (Kit.Outcome.label o));
  (* mem_mb:0 disables the budget even when HB_MEM_MB is set. *)
  Alcotest.(check bool) "0 disables" true
    (Kit.Guard.run ~mem_mb:0 (fun () -> 1) = Kit.Outcome.Ok 1)

(* Allocate and retain until the armed budget fires (or the cap is hit,
   failing the test via Ok). Returns only on the Ok path. *)
let allocate_past_budget () =
  let acc = ref [] in
  for i = 0 to 30_000 do
    acc := Array.make 128 i :: !acc
  done;
  Array.length (List.hd (Sys.opaque_identity !acc))

let guard_nested_budgets () =
  (* An inner Guard with a tight budget inside an outer Guard with a huge
     one: the inner alarm must fire, and its containment must stop at the
     inner boundary — the outer run carries on and returns Ok. *)
  let outer =
    Kit.Guard.run ~mem_mb:4096 (fun () ->
        let inner = Kit.Guard.run ~mem_mb:2 allocate_past_budget in
        (match inner with
        | Kit.Outcome.Out_of_memory -> ()
        | o ->
            Alcotest.failf "inner: expected out_of_memory, got %s"
              (Kit.Outcome.label o));
        (* The inner alarm is deleted on exit: allocations past the
           *inner* budget are now fine again, because only the outer
           4096 MB alarm is left armed. *)
        Kit.Guard.run ~mem_mb:0 allocate_past_budget)
  in
  match outer with
  | Kit.Outcome.Ok (Kit.Outcome.Ok n) -> Alcotest.(check int) "outer survives the inner trip" 128 n
  | o -> Alcotest.failf "outer: expected ok, got %s" (Kit.Outcome.label o)

let guard_nested_alarm_cleanup () =
  (* Both alarms must be deleted on every exit path — normal return and
     exception alike. If one leaked, the retained allocation below
     (beyond the tight budgets) would raise Out_of_memory out of
     Gc.compact or a later allocation, outside any Guard. *)
  (match
     Kit.Guard.run ~mem_mb:2048 (fun () ->
         Kit.Guard.run ~mem_mb:2 allocate_past_budget)
   with
  | Kit.Outcome.Ok (Kit.Outcome.Out_of_memory) -> ()
  | o -> Alcotest.failf "trip path: unexpected %s" (Kit.Outcome.label o));
  (match
     Kit.Guard.run ~mem_mb:2048 (fun () ->
         Kit.Guard.run ~mem_mb:3 (fun () -> failwith "inner crash"))
   with
  | Kit.Outcome.Ok (Kit.Outcome.Crash _) -> ()
  | o -> Alcotest.failf "crash path: unexpected %s" (Kit.Outcome.label o));
  let keep = Sys.opaque_identity (ref []) in
  for i = 0 to 30_000 do
    keep := Array.make 128 i :: !keep
  done;
  Gc.compact ();
  Alcotest.(check bool) "no alarm leaked past the guards" true
    (List.length !keep > 0)

(* --- fault injection --------------------------------------------------------- *)

let with_faults spec f =
  (match Kit.Fault.configure spec with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Fun.protect ~finally:Kit.Fault.clear f

let fault_hang_parses () =
  (* Firing a hang in-process would hang this very test, so arm it at the
     2nd hit and take only the 1st: parsing and counting must work, and
     the un-fired hit must return. (The firing path is exercised under
     Kit.Proc in test_isolation.ml, where a watchdog can kill it.) *)
  with_faults "hang@site.x:2" (fun () ->
      Alcotest.(check bool) "armed" true (Kit.Fault.armed ());
      Kit.Fault.hit "site.x")

let fault_spec_errors () =
  let bad spec =
    match Kit.Fault.configure spec with
    | Error _ -> Alcotest.(check bool) (spec ^ " leaves disarmed") false (Kit.Fault.armed ())
    | Ok () -> Alcotest.failf "spec %S should not parse" spec
  in
  bad "bogus";
  bad "explode@site:1";
  bad "crash@site";
  bad "crash@:1";
  bad "crash@site:0";
  bad "crash@site:p2.0";
  bad "truncate@site:5";
  bad "crash@ok:1;bogus";
  Alcotest.(check bool) "empty spec disarms" true
    (Kit.Fault.configure "" = Ok () && not (Kit.Fault.armed ()))

let fault_nth_hit () =
  with_faults "crash@t.site:3" (fun () ->
      Kit.Fault.hit "t.site";
      Kit.Fault.hit "t.other";
      Kit.Fault.hit "t.site";
      (match Kit.Fault.hit "t.site" with
      | () -> Alcotest.fail "third hit should raise"
      | exception Kit.Fault.Injected m ->
          Alcotest.(check bool) "message names site and hit" true
            (m = "injected crash at t.site (hit 3)"));
      (* Nth fires exactly once. *)
      Kit.Fault.hit "t.site")

let fault_oom_kind () =
  with_faults "oom@t.oom:1" (fun () ->
      match Kit.Fault.hit "t.oom" with
      | () -> Alcotest.fail "oom site should raise"
      | exception Stdlib.Out_of_memory -> ())

let fault_probability_deterministic () =
  let fired () =
    List.init 200 (fun i ->
        match Kit.Fault.hit "t.p" with
        | () -> (i, false)
        | exception Kit.Fault.Injected _ -> (i, true))
  in
  let a = with_faults "kill@t.p:p0.3:s7" fired in
  let b = with_faults "kill@t.p:p0.3:s7" fired in
  let c = with_faults "kill@t.p:p0.3:s8" fired in
  Alcotest.(check bool) "same seed, same firing pattern" true (a = b);
  Alcotest.(check bool) "different seed, different pattern" true (a <> c);
  let n = List.length (List.filter snd a) in
  Alcotest.(check bool)
    (Printf.sprintf "rate plausible for p=0.3 (%d/200)" n)
    true
    (n > 30 && n < 90)

let fault_net_kinds () =
  (* stall/reset/torn parse, are invisible to [hit], and fire through
     [net] at their Nth trigger. *)
  with_faults "stall@w.read:2;torn@w.write:1" (fun () ->
      Alcotest.(check bool) "armed" true (Kit.Fault.armed ());
      (* hit never acts on net kinds, whatever the counter says *)
      Kit.Fault.hit "w.read";
      Kit.Fault.hit "w.read";
      Alcotest.(check bool) "net miss on 1st read hit" true
        (Kit.Fault.net "w.read" = None);
      Alcotest.(check bool) "net stall on 2nd read hit" true
        (Kit.Fault.net "w.read" = Some Kit.Fault.Stall);
      Alcotest.(check bool) "nth fires once" true
        (Kit.Fault.net "w.read" = None);
      Alcotest.(check bool) "torn on 1st write" true
        (Kit.Fault.net "w.write" = Some Kit.Fault.Torn);
      Alcotest.(check bool) "other sites untouched" true
        (Kit.Fault.net "w.other" = None));
  with_faults "reset@w.r:1" (fun () ->
      Alcotest.(check bool) "reset fires" true
        (Kit.Fault.net "w.r" = Some Kit.Fault.Reset));
  (* net clauses share the deterministic probability machinery *)
  let fired () =
    List.init 200 (fun _ -> Kit.Fault.net "w.p" <> None)
  in
  let a = with_faults "torn@w.p:p0.3:s7" fired in
  let b = with_faults "torn@w.p:p0.3:s7" fired in
  Alcotest.(check bool) "seeded net pattern reproducible" true (a = b);
  let n = List.length (List.filter Fun.id a) in
  Alcotest.(check bool)
    (Printf.sprintf "net rate plausible for p=0.3 (%d/200)" n)
    true
    (n > 30 && n < 90)

let fault_truncate () =
  with_faults "truncate@t.cut:2x5" (fun () ->
      Alcotest.(check bool) "first hit passes" true (Kit.Fault.cut "t.cut" = None);
      Alcotest.(check bool) "second hit truncates to 5" true
        (Kit.Fault.cut "t.cut" = Some 5);
      Alcotest.(check bool) "third hit passes" true (Kit.Fault.cut "t.cut" = None);
      (* Non-truncate kinds ignore cut and vice versa. *)
      Kit.Fault.hit "t.cut")

(* --- json -------------------------------------------------------------------- *)

let json_roundtrip () =
  let v =
    Kit.Json.Obj
      [
        ("s", Kit.Json.String "a\"b\\c\nd\t009 é");
        ("i", Kit.Json.Int (-42));
        ("f", Kit.Json.Float 0.30000000000000004);
        ("big", Kit.Json.Float 1.5974044799804688e-05);
        ("t", Kit.Json.Bool true);
        ("n", Kit.Json.Null);
        ("l", Kit.Json.List [ Kit.Json.Int 1; Kit.Json.Obj [] ]);
      ]
  in
  let s = Kit.Json.to_string v in
  Alcotest.(check bool) "single line" true (not (String.contains s '\n'));
  (match Kit.Json.of_string s with
  | Ok v' -> Alcotest.(check bool) "round-trips exactly" true (v = v')
  | Error m -> Alcotest.fail m);
  (* Unicode escapes, including a surrogate pair. *)
  (match Kit.Json.of_string {|"é😀"|} with
  | Ok (Kit.Json.String s) ->
      Alcotest.(check string) "utf-8 decoding" "\xc3\xa9\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "unicode escape parse failed");
  List.iter
    (fun bad ->
      match Kit.Json.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" bad)
    [ "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated"; "nul"; "" ]

let json_accessors () =
  let v =
    match Kit.Json.of_string {|{"a":1,"b":2.5,"c":"x","d":[true,null]}|} with
    | Ok v -> v
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check bool) "member+int" true
    (Option.bind (Kit.Json.member "a" v) Kit.Json.to_int = Some 1);
  Alcotest.(check bool) "int as float" true
    (Option.bind (Kit.Json.member "a" v) Kit.Json.to_float = Some 1.0);
  Alcotest.(check bool) "float" true
    (Option.bind (Kit.Json.member "b" v) Kit.Json.to_float = Some 2.5);
  Alcotest.(check bool) "non-integral float is not an int" true
    (Option.bind (Kit.Json.member "b" v) Kit.Json.to_int = None);
  Alcotest.(check bool) "string" true
    (Option.bind (Kit.Json.member "c" v) Kit.Json.string_value = Some "x");
  Alcotest.(check bool) "missing member" true (Kit.Json.member "z" v = None);
  match Option.bind (Kit.Json.member "d" v) Kit.Json.to_list with
  | Some [ Kit.Json.Bool true; Kit.Json.Null ] -> ()
  | _ -> Alcotest.fail "list accessor"

(* --- deadline: fuel accounting --------------------------------------------- *)

let deadline_fuel_accounting () =
  let d = Kit.Deadline.of_fuel 100 in
  Alcotest.(check (option int)) "initial" (Some 100) (Kit.Deadline.fuel_remaining d);
  for _ = 1 to 30 do Kit.Deadline.check d done;
  Alcotest.(check (option int)) "one unit per check" (Some 70)
    (Kit.Deadline.fuel_remaining d);
  (try
     while true do Kit.Deadline.check d done
   with Kit.Deadline.Timed_out -> ());
  Alcotest.(check (option int)) "exhausted" (Some 0)
    (Kit.Deadline.fuel_remaining d);
  Alcotest.check_raises "stays exhausted" Kit.Deadline.Timed_out (fun () ->
      Kit.Deadline.check d);
  Alcotest.(check (option int)) "clamped at zero" (Some 0)
    (Kit.Deadline.fuel_remaining d);
  Alcotest.(check (option int)) "wall has no fuel" None
    (Kit.Deadline.fuel_remaining (Kit.Deadline.of_seconds 10.0));
  Alcotest.(check (option int)) "none has no fuel" None
    (Kit.Deadline.fuel_remaining Kit.Deadline.none)

(* --- pool outcomes ----------------------------------------------------------- *)

let pool_run_outcome () =
  let tasks = Array.init 20 Fun.id in
  let work x = if x mod 7 = 3 then failwith "boom" else x * x in
  let check_jobs jobs =
    let out = Kit.Pool.run_outcome ~jobs work tasks in
    Alcotest.(check int) "one outcome per task" 20 (Array.length out);
    Array.iteri
      (fun i x ->
        match out.(i) with
        | Kit.Outcome.Ok v -> Alcotest.(check int) "value in order" (x * x) v
        | Kit.Outcome.Crash _ ->
            Alcotest.(check bool) "crash only where injected" true
              (x mod 7 = 3)
        | o -> Alcotest.failf "unexpected outcome %s" (Kit.Outcome.label o))
      tasks
  in
  check_jobs 1;
  check_jobs 4

(* --- diag -------------------------------------------------------------- *)

let contains_sub s sub =
  try
    ignore (Str.search_forward (Str.regexp_string sub) s 0);
    true
  with Not_found -> false

let diag_positions () =
  let src = "ab\ncde\n\nf" in
  let check_pos name off line col =
    let p = Kit.Diag.position src off in
    Alcotest.(check (pair int int)) name (line, col)
      (p.Kit.Diag.line, p.Kit.Diag.col)
  in
  check_pos "start" 0 1 1;
  check_pos "mid line 1" 1 1 2;
  check_pos "newline belongs to its line" 2 1 3;
  check_pos "line 2" 3 2 1;
  check_pos "empty line" 7 3 1;
  check_pos "last char" 8 4 1;
  (* Clamped, never raising: one past the end and far past the end. *)
  check_pos "eof" 9 4 2;
  check_pos "way past eof" 1000 4 2

let diag_render () =
  let src = "SELECT a\nFROM t WHERE ???\n" in
  let d = Kit.Diag.error (Kit.Diag.span 22 25) "no such operator" in
  let r = Kit.Diag.render ~file:"q.sql" ~source:src d in
  Alcotest.(check bool) "header" true
    (String.length r > 0
    && String.sub r 0 (String.length "q.sql:2:14: error:")
       = "q.sql:2:14: error:");
  Alcotest.(check bool) "caret line present" true
    (contains_sub r "^^^");
  Alcotest.(check string) "one_line" "q.sql:2:14: error: no such operator"
    (Kit.Diag.one_line ~file:"q.sql" ~source:src d);
  (* to_message summarises several diagnostics in one line. *)
  let more = Kit.Diag.error (Kit.Diag.point 0) "first" in
  let m = Kit.Diag.to_message ~source:src [ d; more ] in
  Alcotest.(check string) "to_message picks lowest offset + counts rest"
    "1:1: error: first (+1 more error)" m

let diag_json () =
  let src = "x\nyz" in
  let d = Kit.Diag.error (Kit.Diag.span 2 4) "bad" in
  let j = Kit.Diag.to_json ~source:src d in
  let get f name =
    match Option.bind (Kit.Json.member name j) f with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" name
  in
  Alcotest.(check string) "severity" "error"
    (get Kit.Json.string_value "severity");
  Alcotest.(check int) "line" 2 (get Kit.Json.to_int "line");
  Alcotest.(check int) "col" 1 (get Kit.Json.to_int "col");
  Alcotest.(check int) "offset" 2 (get Kit.Json.to_int "offset");
  Alcotest.(check int) "end_offset" 4 (get Kit.Json.to_int "end_offset");
  Alcotest.(check string) "message" "bad" (get Kit.Json.string_value "message");
  (* all_to_json sorts by span start. *)
  let l =
    Kit.Diag.all_to_json ~source:src
      [ d; Kit.Diag.error (Kit.Diag.point 0) "earlier" ]
  in
  match Kit.Json.to_list l with
  | Some [ a; _ ] ->
      Alcotest.(check (option string)) "sorted" (Some "earlier")
        (Option.bind (Kit.Json.member "message" a) Kit.Json.string_value)
  | _ -> Alcotest.fail "expected a two-element list"

(* --- limits ------------------------------------------------------------ *)

(* Knobs are re-read on every call, so a putenv takes effect at once;
   restoring "" reads as unset again. *)
let with_env name v f =
  let old = Sys.getenv_opt name in
  Unix.putenv name v;
  Fun.protect
    ~finally:(fun () -> Unix.putenv name (Option.value old ~default:""))
    f

let limits_env () =
  with_env "HB_PARSE_DEPTH" "17" (fun () ->
      Alcotest.(check int) "depth knob" 17 (Kit.Config.parse_depth ()));
  with_env "HB_PARSE_DEPTH" "not-a-number" (fun () ->
      Alcotest.check_raises "bad depth is an error"
        (Invalid_argument
           "HB_PARSE_DEPTH: expected an integer >= 1, got \"not-a-number\"")
        (fun () -> ignore (Kit.Config.parse_depth ())));
  with_env "HB_MAX_INPUT" "10" (fun () ->
      Alcotest.(check int) "input knob" 10 (Kit.Config.max_input ());
      (match Kit.Limits.check_input "elevenbytes" with
      | Some d ->
          Alcotest.(check bool) "mentions the knob" true
            (contains_sub d.Kit.Diag.message "HB_MAX_INPUT")
      | None -> Alcotest.fail "11 bytes must exceed a 10-byte cap");
      Alcotest.(check bool) "under the cap" true
        (Kit.Limits.check_input "tenbytes!!" = None))

(* --- config ------------------------------------------------------------- *)

(* One malformed value per knob; a knob added to Kit.Config without a
   row here fails the coverage check. *)
let malformed =
  [
    ("HB_SCALE", "abc"); ("HB_SEED", "12x"); ("HB_BUDGET", "0");
    ("HB_FUEL", "-1"); ("HB_JOBS", "0"); ("HB_MEM_MB", "abc");
    ("HB_ISOLATE", "true"); ("HB_WALL", "abc");
    ("HB_JOURNAL", Filename.get_temp_dir_name ()); ("HB_RESUME", "yes");
    ("HB_RETRIES", "-1"); ("HB_CACHE", Sys.executable_name);
    ("HB_FAULT", "boom@x:1"); ("HB_PERF_ITERS", "0");
    ("HB_GATE", "no-such-dir/gates.txt"); ("HB_IDLE", "-1");
    ("HB_READ_TIMEOUT", "abc"); ("HB_WRITE_TIMEOUT", "nan");
    ("HB_DRAIN", "abc"); ("HB_PARSE_DEPTH", "0"); ("HB_MAX_INPUT", "1e9");
  ]

let config_malformed_named () =
  let names = List.map (fun k -> k.Kit.Config.name) Kit.Config.knobs in
  Alcotest.(check (list string)) "a malformed value per knob"
    (List.sort compare names)
    (List.sort compare (List.map fst malformed));
  List.iter
    (fun (name, bad) ->
      with_env name bad (fun () ->
          let prefix = name ^ ": " in
          match
            List.filter (String.starts_with ~prefix) (Kit.Config.errors ())
          with
          | [ m ] ->
              Alcotest.(check bool) (name ^ " named") true
                (String.starts_with ~prefix:(prefix ^ "expected ") m
                && contains_sub m (Printf.sprintf "got %S" bad))
          | ms ->
              Alcotest.failf "%s=%s: expected one error, got [%s]" name bad
                (String.concat "; " ms)))
    malformed

let config_unknown_warns () =
  let listed () = List.mem "HB_NO_SUCH_KNOB" (Kit.Config.unknown ()) in
  with_env "HB_NO_SUCH_KNOB" "1" (fun () ->
      Alcotest.(check bool) "unknown listed" true (listed ());
      Alcotest.(check bool) "not an error" false
        (List.exists
           (String.starts_with ~prefix:"HB_NO_SUCH_KNOB")
           (Kit.Config.errors ())));
  Alcotest.(check bool) "empty reads as unset" false (listed ())

(* README's "Environment knobs" table lists exactly Kit.Config's names
   and defaults, in the same order. *)
let config_readme_in_step () =
  let ic = open_in_bin "../README.md" in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let is_row l = String.starts_with ~prefix:"|" l in
  let rec section = function
    | [] -> Alcotest.fail "README has no \"Environment knobs\" section"
    | l :: rest when String.trim l = "### Environment knobs" -> rest
    | _ :: rest -> section rest
  in
  let rec table = function
    | l :: rest when is_row l -> l :: table rest
    | _ -> []
  in
  let rec first_table = function
    | [] -> []
    | l :: _ as ls when is_row l -> table ls
    | _ :: rest -> first_table rest
  in
  let cell s = String.concat "" (String.split_on_char '`' (String.trim s)) in
  let rows =
    List.filter_map
      (fun l ->
        match String.split_on_char '|' l with
        | _ :: name :: default :: _
          when String.starts_with ~prefix:"HB_" (cell name) ->
            Some (cell name, cell default)
        | _ -> None)
      (first_table (section (String.split_on_char '\n' text)))
  in
  Alcotest.(check (list (pair string string)))
    "README knob table = Kit.Config.knobs"
    (List.map
       (fun k -> (k.Kit.Config.name, k.Kit.Config.default))
       Kit.Config.knobs)
    rows

(* --- fuzz -------------------------------------------------------------- *)

let fuzz_determinism () =
  (* Same seed, same stream — byte-identical generations, per generator. *)
  List.iter
    (fun (name, gen) ->
      let a = List.init 50 (fun i -> gen (Kit.Rng.create (1000 + i))) in
      let b = List.init 50 (fun i -> gen (Kit.Rng.create (1000 + i))) in
      Alcotest.(check bool) (name ^ " deterministic") true (a = b))
    [
      ("sql", Kit.Fuzz.sql); ("xcsp", Kit.Fuzz.xcsp);
      ("hg", Kit.Fuzz.hg); ("hbx", Kit.Fuzz.hbx);
    ]

let fuzz_mutate_changes () =
  let base = "p(a, b), q(b, c)." in
  for seed = 0 to 99 do
    let m = Kit.Fuzz.mutate (Kit.Rng.create seed) base in
    if m = base then Alcotest.failf "mutation %d returned input unchanged" seed
  done

let fuzz_shrink () =
  (* Predicate: contains the byte 'X'. Shrinking must keep it while
     discarding the padding around it. *)
  let input = String.make 400 'a' ^ "X" ^ String.make 400 'b' in
  let pred s = String.contains s 'X' in
  let s = Kit.Fuzz.shrink pred input in
  Alcotest.(check bool) "still fails" true (pred s);
  Alcotest.(check bool) "much smaller" true (String.length s < 100);
  (* A predicate nothing satisfies after removal: input comes back. *)
  Alcotest.(check string) "irreducible input survives" "X"
    (Kit.Fuzz.shrink pred "X")

(* --- guard: real stack overflow (not a pre-raised exception) ------------ *)

let guard_stack_overflow_real () =
  (* An actual runaway recursion — the exception is raised by the runtime
     with the stack nearly exhausted, which is exactly the state where a
     careless handler (e.g. one that captures a backtrace first) would
     overflow again and abort the process. *)
  let rec boom n = 1 + boom (n + 1) in
  (match Kit.Guard.run (fun () -> boom 0) with
  | Kit.Outcome.Stack_overflow -> ()
  | o -> Alcotest.failf "expected stack_overflow, got %s" (Kit.Outcome.label o));
  Alcotest.(check bool) "still alive" true
    (Kit.Guard.run (fun () -> 1) = Kit.Outcome.Ok 1)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "kit"
    [
      ( "bitset",
        [
          Alcotest.test_case "basics" `Quick bitset_basics;
          Alcotest.test_case "full with partial word" `Quick bitset_full_partial_word;
          Alcotest.test_case "set operations" `Quick bitset_set_ops;
          Alcotest.test_case "universe mismatch" `Quick bitset_universe_mismatch;
          Alcotest.test_case "choose and filter" `Quick bitset_choose_filter;
          qt prop_roundtrip;
          qt prop_union_model;
          qt prop_inter_model;
          qt prop_diff_model;
          qt prop_inter_cardinal;
        ] );
      ( "rational",
        [
          Alcotest.test_case "arithmetic" `Quick rational_basics;
          Alcotest.test_case "floor/ceil" `Quick rational_floor_ceil;
          Alcotest.test_case "float approximation" `Quick rational_approx;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick rng_determinism;
          Alcotest.test_case "bounds" `Quick rng_bounds;
          Alcotest.test_case "sampling" `Quick rng_sample;
        ] );
      ( "union_find", [ Alcotest.test_case "groups" `Quick union_find ] );
      ( "names", [ Alcotest.test_case "interning" `Quick names ] );
      ( "deadline",
        [
          Alcotest.test_case "fuel" `Quick deadline_fuel;
          Alcotest.test_case "none" `Quick deadline_none;
          Alcotest.test_case "wall coherent" `Quick deadline_wall_coherent;
          Alcotest.test_case "fuel is atomic" `Quick deadline_fuel_atomic;
          Alcotest.test_case "cancel flag" `Quick deadline_cancel;
          Alcotest.test_case "cancel across domains" `Quick
            deadline_cancel_across_domains;
          Alcotest.test_case "fuel accounting" `Quick deadline_fuel_accounting;
        ] );
      ( "pool",
        [
          Alcotest.test_case "parallel = sequential" `Quick pool_matches_sequential;
          Alcotest.test_case "exceptions captured" `Quick pool_captures_exceptions;
          Alcotest.test_case "empty and default" `Quick pool_empty_and_default;
          Alcotest.test_case "run_outcome" `Quick pool_run_outcome;
        ] );
      ( "outcome",
        [
          Alcotest.test_case "classify" `Quick outcome_classify;
          Alcotest.test_case "labels round-trip" `Quick outcome_labels_roundtrip;
        ] );
      ( "guard",
        [
          Alcotest.test_case "containment" `Quick guard_containment;
          Alcotest.test_case "soft memory budget" `Quick guard_mem_budget;
          Alcotest.test_case "nested budgets" `Quick guard_nested_budgets;
          Alcotest.test_case "nested alarm cleanup" `Quick
            guard_nested_alarm_cleanup;
        ] );
      ( "fault",
        [
          Alcotest.test_case "spec errors" `Quick fault_spec_errors;
          Alcotest.test_case "hang kind parses" `Quick fault_hang_parses;
          Alcotest.test_case "nth hit" `Quick fault_nth_hit;
          Alcotest.test_case "oom kind" `Quick fault_oom_kind;
          Alcotest.test_case "probability deterministic" `Quick
            fault_probability_deterministic;
          Alcotest.test_case "truncate" `Quick fault_truncate;
          Alcotest.test_case "network kinds" `Quick fault_net_kinds;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick json_roundtrip;
          Alcotest.test_case "accessors" `Quick json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "merge across domains" `Quick
            metrics_merge_across_domains;
          Alcotest.test_case "span nesting" `Quick metrics_span_nesting;
          Alcotest.test_case "reset" `Quick metrics_reset;
          Alcotest.test_case "disabled fast path" `Quick
            metrics_disabled_fast_path;
          Alcotest.test_case "local delta" `Quick metrics_local_delta;
          Alcotest.test_case "absorb replays a snapshot" `Quick metrics_absorb;
        ] );
      ( "diag",
        [
          Alcotest.test_case "positions" `Quick diag_positions;
          Alcotest.test_case "render" `Quick diag_render;
          Alcotest.test_case "json" `Quick diag_json;
        ] );
      ( "limits", [ Alcotest.test_case "env knobs" `Quick limits_env ] );
      ( "config",
        [
          Alcotest.test_case "malformed knob named" `Quick
            config_malformed_named;
          Alcotest.test_case "unknown knob warns" `Quick config_unknown_warns;
          Alcotest.test_case "README table in step" `Quick
            config_readme_in_step;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "determinism" `Quick fuzz_determinism;
          Alcotest.test_case "mutate changes input" `Quick fuzz_mutate_changes;
          Alcotest.test_case "shrink" `Quick fuzz_shrink;
          Alcotest.test_case "guard catches real overflow" `Quick
            guard_stack_overflow_real;
        ] );
    ]
