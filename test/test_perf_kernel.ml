(* The allocation-free kernel must be invisible except in speed:
   - randomized differential suite: every in-place/fused operation agrees
     with its immutable reference composition, including aliased
     arguments and universe mismatches;
   - pinned search counters: the hot-path rewrite of the decomposition
     cores left the explored search trees bit-identical (fixed fuel, at
     1 and at 4 domains);
   - the cross-width sweep cache only ever answers in the sound
     direction, so an ascending sweep explores exactly as before while
     re-probes hit. *)

module Bitset = Kit.Bitset
module Rng = Kit.Rng
module Metrics = Kit.Metrics
module H = Hg.Hypergraph

(* --- randomized differential suite -------------------------------------- *)

let random_list rng n =
  let len = Rng.int rng (2 * n) in
  List.init len (fun _ -> Rng.int rng n)

(* Universe sizes straddling the word boundaries. *)
let random_universe rng = 1 + Rng.int rng 140

let check_eq case what expect got =
  Alcotest.(check (list int))
    (Printf.sprintf "case %d: %s" case what)
    (Bitset.to_list expect) (Bitset.to_list got)

let differential_in_place () =
  let rng = Rng.create 2019 in
  for case = 1 to 400 do
    let n = random_universe rng in
    let a = Bitset.of_list n (random_list rng n) in
    let b = Bitset.of_list n (random_list rng n) in
    (* union_into / inter_into / diff_into against the immutable ops. *)
    let t = Bitset.copy a in
    Bitset.union_into ~into:t b;
    check_eq case "union_into" (Bitset.union a b) t;
    let t = Bitset.copy a in
    Bitset.inter_into ~into:t b;
    check_eq case "inter_into" (Bitset.inter a b) t;
    let t = Bitset.copy a in
    Bitset.diff_into ~into:t b;
    check_eq case "diff_into" (Bitset.diff a b) t;
    (* copy_into, clear, add/remove_in_place. *)
    let t = Bitset.of_list n (random_list rng n) in
    Bitset.copy_into a ~into:t;
    check_eq case "copy_into" a t;
    let x = Rng.int rng n in
    let t = Bitset.copy a in
    Bitset.add_in_place x t;
    check_eq case "add_in_place" (Bitset.add x a) t;
    let t = Bitset.copy a in
    Bitset.remove_in_place x t;
    check_eq case "remove_in_place" (Bitset.remove x a) t;
    let t = Bitset.copy a in
    Bitset.clear t;
    check_eq case "clear" (Bitset.empty n) t;
    (* Fused queries = their immutable compositions. *)
    Alcotest.(check int)
      (Printf.sprintf "case %d: inter_cardinal" case)
      (Bitset.cardinal (Bitset.inter a b))
      (Bitset.inter_cardinal a b);
    Alcotest.(check int)
      (Printf.sprintf "case %d: first" case)
      (match Bitset.choose a with Some x -> x | None -> -1)
      (Bitset.first a)
  done

let differential_aliasing () =
  let rng = Rng.create 77 in
  for case = 1 to 50 do
    let n = random_universe rng in
    let a = Bitset.of_list n (random_list rng n) in
    let t = Bitset.copy a in
    Bitset.union_into ~into:t t;
    check_eq case "union_into aliased" a t;
    let t = Bitset.copy a in
    Bitset.inter_into ~into:t t;
    check_eq case "inter_into aliased" a t;
    let t = Bitset.copy a in
    Bitset.diff_into ~into:t t;
    check_eq case "diff_into aliased" (Bitset.empty n) t;
    let t = Bitset.copy a in
    Bitset.copy_into t ~into:t;
    check_eq case "copy_into aliased" a t
  done

let differential_iteration () =
  let rng = Rng.create 40409 in
  for case = 1 to 50 do
    let n = random_universe rng in
    let xs = random_list rng n in
    let s = Bitset.of_list n xs in
    let model = List.sort_uniq compare xs in
    Alcotest.(check (list int))
      (Printf.sprintf "case %d: of_list = model" case)
      model (Bitset.to_list s);
    Alcotest.(check int)
      (Printf.sprintf "case %d: cardinal" case)
      (List.length model) (Bitset.cardinal s);
    (* iter must visit in ascending order (to_list is built from iter, so
       check the order directly). *)
    let seen = ref [] in
    Bitset.iter (fun x -> seen := x :: !seen) s;
    Alcotest.(check (list int))
      (Printf.sprintf "case %d: iter ascending" case)
      model
      (List.rev !seen);
    let p x = x mod 3 = 0 in
    Alcotest.(check (list int))
      (Printf.sprintf "case %d: filter" case)
      (List.filter p model)
      (Bitset.to_list (Bitset.filter p s));
    let x = Rng.int rng n in
    Alcotest.(check (list int))
      (Printf.sprintf "case %d: singleton" case)
      [ x ]
      (Bitset.to_list (Bitset.singleton n x))
  done

let union_indexed () =
  let rng = Rng.create 6 in
  for case = 1 to 50 do
    let n = random_universe rng and m = random_universe rng in
    let arr = Array.init m (fun _ -> Bitset.of_list n (random_list rng n)) in
    let idx = Bitset.of_list m (random_list rng m) in
    let got = Bitset.empty n in
    Bitset.union_indexed_into ~into:got arr idx;
    let expect =
      Bitset.fold (fun i acc -> Bitset.union acc arr.(i)) idx (Bitset.empty n)
    in
    check_eq case "union_indexed_into" expect got
  done

let universe_mismatch () =
  let a = Bitset.empty 5 and b = Bitset.empty 6 in
  let raises what f =
    Alcotest.check_raises what
      (Invalid_argument "Bitset: universes differ (5 vs 6)") f
  in
  raises "union_into" (fun () -> Bitset.union_into ~into:a b);
  raises "inter_into" (fun () -> Bitset.inter_into ~into:a b);
  raises "diff_into" (fun () -> Bitset.diff_into ~into:a b);
  Alcotest.check_raises "copy_into"
    (Invalid_argument "Bitset: universes differ (6 vs 5)") (fun () ->
      Bitset.copy_into b ~into:a);
  Alcotest.check_raises "add_in_place out of range"
    (Invalid_argument "Bitset: element 5 outside universe 5") (fun () ->
      Bitset.add_in_place 5 a)

let scratch_arena () =
  let arena = Bitset.Scratch.create () in
  let s = Bitset.Scratch.borrow arena 40 in
  Alcotest.(check int) "borrowed universe" 40 (Bitset.universe s);
  Alcotest.(check bool) "borrowed is empty" true (Bitset.is_empty s);
  Bitset.add_in_place 7 s;
  Bitset.Scratch.release arena s;
  let s' = Bitset.Scratch.borrow arena 40 in
  Alcotest.(check bool) "released buffer is reused" true (s == s');
  Alcotest.(check bool) "reused buffer is cleared" true (Bitset.is_empty s');
  (* Distinct universes live in distinct pools. *)
  let t = Bitset.Scratch.borrow arena 13 in
  Alcotest.(check int) "other universe" 13 (Bitset.universe t);
  Alcotest.(check bool) "not the 40-buffer" true (t != s');
  Bitset.Scratch.release arena t;
  Bitset.Scratch.release arena s';
  (* Stack discipline: the most recently released comes back first. *)
  let u = Bitset.Scratch.borrow arena 40 in
  Alcotest.(check bool) "LIFO reuse" true (u == s')

(* BalSep stages one balance checker per recursion node and applies it to
   every separator tried there: the application must not allocate. *)
let staged_is_balanced_allocation_free () =
  let rng = Rng.create 7 in
  let medium =
    Gen.Random_csp.random rng ~n_variables:30 ~n_constraints:45 ~max_arity:4
  in
  let nv = medium.H.n_vertices in
  let special = [| Bitset.of_list nv [ 3; 4 ] |] in
  let check =
    Hg.Components.is_balanced medium ~within:(H.all_edges medium) ~special
  in
  (* Eight bags as the rows of one flat array, as BalSep keeps them. *)
  let w = Bitset.word_count nv in
  let bags = Array.make (8 * w) 0 in
  for i = 0 to 7 do
    Bitset.words_out ~universe:nv
      (Bitset.of_list nv [ i; i + 7; i + 13 ])
      bags (i * w)
  done;
  for i = 0 to 7 do
    ignore (Sys.opaque_identity (check bags (i * w)))
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    ignore (Sys.opaque_identity (check bags ((i land 7) * w)))
  done;
  let words = Gc.minor_words () -. w0 in
  if words >= 1000. then
    Alcotest.failf "staged is_balanced allocated %.0f words over 1000 calls"
      words

(* --- pinned search counters ---------------------------------------------- *)

(* The fixed workloads and their counter totals as measured before the
   hot-path rewrite (fuel-limited, hence machine-independent). The
   in-place kernel, the cached-hash memo keys and the sweep cache must
   not change a single one of them, at any domain count. *)

let instances () =
  let rng = Rng.create 7 in
  let medium =
    Gen.Random_csp.random rng ~n_variables:30 ~n_constraints:45 ~max_arity:4
  in
  let grid = Gen.Structured.grid ~rows:4 ~cols:4 in
  let fano =
    H.of_int_edges
      [ [ 0; 1; 2 ]; [ 0; 3; 4 ]; [ 0; 5; 6 ]; [ 1; 3; 5 ]; [ 1; 4; 6 ];
        [ 2; 3; 6 ]; [ 2; 4; 5 ] ]
  in
  (medium, grid, fano)

(* Every fixture above has at most 30 vertices, one bitset word, where a
   row-offset slip in a word kernel cannot show. [wide] has 79 vertices
   and 70 edges, two words either way; its pins were measured before
   det-k and BalSep moved to flat word rows. *)
let wide () =
  Gen.Random_csp.random (Rng.create 64) ~n_variables:100 ~n_constraints:70
    ~max_arity:3

let pinned_totals =
  [
    ("detk.subproblems", 467);
    ("detk.cover_combinations", 1574);
    ("detk.memo_hits", 651);
    ("detk.memo_misses", 467);
    ("detk.bag_filter_rejections", 0);
    ("balsep.separators_tried", 688);
    ("balsep.balance_rejections", 683);
    ("balsep.special_edges", 5);
    ("balsep.subedge_phases", 1);
  ]

let pinned_counters_at jobs () =
  let medium, grid, fano = instances () in
  Metrics.reset ();
  Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.enabled := false;
      Metrics.reset ())
    (fun () ->
      let tasks =
        [|
          (fun () -> ignore (Detk.solve fano ~k:3));
          (fun () -> ignore (Detk.solve fano ~k:2 ~gyo_fast_path:false));
          (fun () -> ignore (Detk.solve grid ~k:3));
          (fun () ->
            match
              Detk.hypertree_width
                ~deadline:(Kit.Deadline.of_fuel 200_000) medium
            with
            | Some _, _ -> Alcotest.fail "medium decided under 200k fuel?"
            | None, k ->
                Alcotest.(check int) "medium open at k" 2 k);
          (fun () -> ignore (Ghd.Bal_sep.solve fano ~k:2));
          (fun () -> ignore (Ghd.Bal_sep.solve grid ~k:2));
          (fun () ->
            match
              Detk.solve ~deadline:(Kit.Deadline.of_fuel 5_000) medium ~k:2
            with
            | Detk.Timeout -> ()
            | _ -> Alcotest.fail "medium k=2 finished under 5k fuel?");
        |]
      in
      Kit.Pool.run ~jobs (fun f -> f ()) tasks |> ignore;
      let snap = Metrics.snapshot () in
      List.iter
        (fun (name, expect) ->
          Alcotest.(check int)
            (Printf.sprintf "%s at jobs=%d" name jobs)
            expect (Metrics.get snap name))
        pinned_totals)

(* Fuel left after a fuel-limited BalSep run, as measured before the
   cheap separator rejection (degree prefilter + early-exit balance
   test). Rejecting faster must not change how the search spends fuel:
   every tried separator still polls the deadline exactly once. *)
let pinned_balsep_fuel () =
  let medium, grid, fano = instances () in
  List.iter
    (fun (name, h, k, expect) ->
      let deadline = Kit.Deadline.of_fuel 100_000 in
      let a = Ghd.Bal_sep.solve ~deadline h ~k in
      Alcotest.(check bool)
        (Printf.sprintf "%s k=%d decided" name k)
        true
        (a.Ghd.Bal_sep.outcome <> Detk.Timeout);
      Alcotest.(check (option int))
        (Printf.sprintf "%s k=%d fuel left" name k)
        (Some expect)
        (Kit.Deadline.fuel_remaining deadline))
    [
      ("fano", fano, 2, 99_245);
      ("grid", grid, 2, 99_931);
      ("medium", medium, 2, 68_259);
      ("wide", wide (), 2, 73_409);
    ]

(* Width and fuel left after a fuel-limited FracImproveHD run, as
   measured before the packing LP kernel replaced the two-phase simplex.
   The LP spends no fuel, so a faster LP (and the lifted ρ* memo) must
   leave every [bag_filter] decision and the fuel bill unchanged.
   [lp.solves] counts the LPs the bound gate of the ρ* memo could not
   spare (40, 271, 1,512 and 3,984 before the gate), plus one per bag of
   each improved HD. *)
let pinned_frac_improve_fuel () =
  let _, grid, fano = instances () in
  let small =
    Gen.Random_csp.random (Rng.create 11) ~n_variables:16 ~n_constraints:20
      ~max_arity:3
  in
  List.iter
    (fun (name, h, k, fuel, width, left, solves) ->
      let deadline = Kit.Deadline.of_fuel fuel in
      Metrics.reset ();
      Metrics.enabled := true;
      let best =
        Fun.protect
          ~finally:(fun () -> Metrics.enabled := false)
          (fun () -> Fhd.Frac_improve_hd.best ~deadline h ~k)
      in
      (match best with
      | Some (_, w) ->
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "%s k=%d width" name k)
            width w
      | None -> Alcotest.failf "%s k=%d: no decomposition" name k);
      Alcotest.(check (option int))
        (Printf.sprintf "%s k=%d fuel left" name k)
        (Some left)
        (Kit.Deadline.fuel_remaining deadline);
      Alcotest.(check int)
        (Printf.sprintf "%s k=%d lp.solves" name k)
        solves
        (Metrics.get (Metrics.snapshot ()) "lp.solves");
      Metrics.reset ())
    [
      ("fano", fano, 3, 100_000, 7.0 /. 3.0, 97_544, 12);
      ("grid", grid, 3, 100_000, 2.0, 99_181, 15);
      ("csp-small", small, 3, 300_000, 3.0, 183_814, 473);
      ("wide", wide (), 5, 300_000, 4.0, 0, 337);
    ]

(* Counter totals and det-k's fuel left on [wide], beside the one-word
   pins above: a row-offset slip at two words moves them. *)
let pinned_wide_totals =
  [
    ("detk.subproblems", 189);
    ("detk.cover_combinations", 6641);
    ("detk.memo_hits", 76);
    ("detk.memo_misses", 189);
    ("detk.bag_filter_rejections", 6248);
    ("balsep.separators_tried", 109_817);
    ("balsep.balance_rejections", 109_810);
    ("balsep.special_edges", 7);
    ("balsep.subedge_phases", 1);
  ]

let pinned_wide_counters () =
  let h = wide () in
  Metrics.reset ();
  Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.enabled := false;
      Metrics.reset ())
    (fun () ->
      let fuel n = Kit.Deadline.of_fuel n in
      let deadline = fuel 2_000_000 in
      (match Detk.solve ~deadline h ~k:4 with
      | Detk.Decomposition d ->
          Alcotest.(check int) "det-k k=4 valid" 0
            (List.length (Decomp.check_hd h d))
      | _ -> Alcotest.fail "det-k k=4 undecided");
      Alcotest.(check (option int)) "det-k k=4 fuel left" (Some 1_361_566)
        (Kit.Deadline.fuel_remaining deadline);
      ignore (Detk.solve ~deadline:(fuel 50_000) h ~k:3);
      ignore (Ghd.Bal_sep.solve ~deadline:(fuel 100_000) h ~k:2);
      ignore (Ghd.Bal_sep.solve ~deadline:(fuel 100_000) h ~k:5);
      ignore (Fhd.Frac_improve_hd.best ~deadline:(fuel 300_000) h ~k:5);
      let snap = Metrics.snapshot () in
      List.iter
        (fun (name, expect) ->
          Alcotest.(check int) name expect (Metrics.get snap name))
        pinned_wide_totals)

(* --- sweep cache ---------------------------------------------------------- *)

let detk_counters f =
  Metrics.reset ();
  Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.enabled := false;
      Metrics.reset ())
    (fun () ->
      let r = f () in
      let snap = Metrics.snapshot () in
      ( r,
        List.filter
          (fun (name, _) ->
            String.length name >= 5 && String.sub name 0 5 = "detk.")
          snap.Metrics.counters ))

let sweep_reprobe_same_width () =
  let _, _, fano = instances () in
  let sweep = Detk.sweep_cache () in
  let first, c1 = detk_counters (fun () -> Detk.solve ~sweep fano ~k:2) in
  let second, c2 = detk_counters (fun () -> Detk.solve ~sweep fano ~k:2) in
  Alcotest.(check bool) "first is No_decomposition" true
    (first = Detk.No_decomposition);
  Alcotest.(check bool) "same outcome on re-probe" true (first = second);
  Alcotest.(check int) "fresh run explores" 29
    (List.assoc "detk.subproblems" c1);
  (* The re-probe finds the root subproblem already refuted: one memo hit,
     zero exploration. *)
  Alcotest.(check int) "re-probe explores nothing" 0
    (List.assoc "detk.subproblems" c2);
  Alcotest.(check int) "re-probe hits the table" 1
    (List.assoc "detk.memo_hits" c2)

let sweep_downward_reuse () =
  let _, _, fano = instances () in
  let sweep = Detk.sweep_cache () in
  let (res, _), _ =
    detk_counters (fun () -> Detk.hypertree_width ~sweep fano)
  in
  (match res with
  | Some (hw, _) -> Alcotest.(check int) "fano hw" 3 hw
  | None -> Alcotest.fail "fano undecided");
  (* Failure at width 2 was proven during the sweep; probing width 2 (and
     width 1, which is below the proof) again answers from the table. *)
  List.iter
    (fun k ->
      let outcome, c =
        detk_counters (fun () ->
            Detk.solve ~sweep ~gyo_fast_path:false fano ~k)
      in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d still refuted" k)
        true
        (outcome = Detk.No_decomposition);
      Alcotest.(check int)
        (Printf.sprintf "k=%d answered from the table" k)
        0
        (List.assoc "detk.subproblems" c))
    [ 2; 1 ]

let sweep_ascending_identical () =
  (* A shared sweep table must not change what an ascending sweep
     explores: hypertree_width with a caller-supplied table behaves
     bit-identically to its private one. *)
  let _, grid, fano = instances () in
  List.iter
    (fun h ->
      let (r1, _), c1 = detk_counters (fun () -> Detk.hypertree_width h) in
      let (r2, _), c2 =
        detk_counters (fun () ->
            Detk.hypertree_width ~sweep:(Detk.sweep_cache ()) h)
      in
      let width = function Some (hw, _) -> hw | None -> -1 in
      Alcotest.(check int) "same width" (width r1) (width r2);
      Alcotest.(check (list (pair string int))) "same counters" c1 c2)
    [ fano; grid ]

let () =
  Alcotest.run "perf_kernel"
    [
      ( "differential",
        [
          Alcotest.test_case "in-place vs immutable" `Quick
            differential_in_place;
          Alcotest.test_case "aliased arguments" `Quick differential_aliasing;
          Alcotest.test_case "iteration and builders" `Quick
            differential_iteration;
          Alcotest.test_case "union_indexed_into" `Quick union_indexed;
          Alcotest.test_case "universe mismatch" `Quick universe_mismatch;
          Alcotest.test_case "scratch arena" `Quick scratch_arena;
          Alcotest.test_case "staged is_balanced allocation-free" `Quick
            staged_is_balanced_allocation_free;
        ] );
      ( "pinned counters",
        [
          Alcotest.test_case "jobs=1" `Quick (pinned_counters_at 1);
          Alcotest.test_case "jobs=4" `Quick (pinned_counters_at 4);
          Alcotest.test_case "balsep fuel left" `Quick pinned_balsep_fuel;
          Alcotest.test_case "frac_improve fuel left" `Quick
            pinned_frac_improve_fuel;
          Alcotest.test_case "multi-word counters" `Quick pinned_wide_counters;
        ] );
      ( "sweep cache",
        [
          Alcotest.test_case "re-probe at same width" `Quick
            sweep_reprobe_same_width;
          Alcotest.test_case "downward reuse" `Quick sweep_downward_reuse;
          Alcotest.test_case "ascending sweep unchanged" `Quick
            sweep_ascending_identical;
        ] );
    ]
