(* Tests for the three GHD algorithms (GlobalBIP, LocalBIP, BalSep), the
   subedge machinery, and the portfolio. The key properties:
   - every "yes" produces a tree that passes the full GHD validator;
   - the three algorithms agree with each other;
   - ghw <= hw always (a "yes" for HD forces a "yes" for GHD);
   - a "no" from GHD at k forces a "no" from HD at k. *)

module Bitset = Kit.Bitset
module H = Hg.Hypergraph

let triangle = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ] ]

let fano =
  H.of_int_edges
    [
      [ 0; 1; 2 ];
      [ 0; 3; 4 ];
      [ 0; 5; 6 ];
      [ 1; 3; 5 ];
      [ 1; 4; 6 ];
      [ 2; 3; 6 ];
      [ 2; 4; 5 ];
    ]

let cycle n = H.of_int_edges (List.init n (fun i -> [ i; (i + 1) mod n ]))

(* The running example of using subedges: interlocking wide edges where a
   GHD can use parts of edges that an HD cannot. *)
let wide_overlap =
  H.of_int_edges
    [ [ 0; 1; 2; 3 ]; [ 2; 3; 4; 5 ]; [ 4; 5; 6; 7 ]; [ 6; 7; 0; 1 ] ]

type alg = Global | Local | Balsep

let run alg h k =
  match alg with
  | Global -> (Ghd.Global_bip.solve h ~k).Ghd.Global_bip.outcome
  | Local -> (Ghd.Local_bip.solve h ~k).Ghd.Local_bip.outcome
  | Balsep -> (Ghd.Bal_sep.solve h ~k).Ghd.Bal_sep.outcome

let alg_name = function Global -> "GlobalBIP" | Local -> "LocalBIP" | Balsep -> "BalSep"

let expect_yes alg h k name =
  match run alg h k with
  | Detk.Decomposition d ->
      (match Decomp.check_ghd h d with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s %s: invalid GHD: %a" (alg_name alg) name
            (Decomp.pp_violation h) v);
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: width <= %d" (alg_name alg) name k)
        true
        (Decomp.width d <= k)
  | Detk.No_decomposition -> Alcotest.failf "%s %s: expected yes at k=%d" (alg_name alg) name k
  | Detk.Timeout -> Alcotest.failf "%s %s: timeout" (alg_name alg) name

let expect_no alg h k name =
  match run alg h k with
  | Detk.No_decomposition -> ()
  | Detk.Decomposition _ -> Alcotest.failf "%s %s: expected no at k=%d" (alg_name alg) name k
  | Detk.Timeout -> Alcotest.failf "%s %s: timeout" (alg_name alg) name

let all_algs = [ Global; Local; Balsep ]

let ghw_triangle () =
  List.iter
    (fun a ->
      expect_yes a triangle 2 "triangle";
      expect_no a triangle 1 "triangle")
    all_algs

let ghw_cycles () =
  List.iter
    (fun a ->
      expect_yes a (cycle 4) 2 "C4";
      expect_no a (cycle 4) 1 "C4";
      expect_yes a (cycle 6) 2 "C6")
    all_algs

let ghw_fano () =
  (* ghw(Fano) = 3: the fractional width 7/3 rules out ghw = 2. *)
  List.iter
    (fun a ->
      expect_yes a fano 3 "fano";
      expect_no a fano 2 "fano")
    all_algs

let ghw_acyclic () =
  let path = H.of_int_edges [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] ] in
  List.iter (fun a -> expect_yes a path 1 "path") all_algs

let ghw_wide_overlap () =
  List.iter
    (fun a ->
      expect_yes a wide_overlap 2 "wide";
      expect_no a wide_overlap 1 "wide")
    all_algs

let ghw_disconnected () =
  let h = H.of_int_edges [ [ 0; 1 ]; [ 2; 3 ]; [ 3; 4 ]; [ 4; 2 ] ] in
  List.iter (fun a -> expect_yes a h 2 "disconnected") all_algs

(* --- subedges ------------------------------------------------------------ *)

let subedges_small () =
  let h = H.of_int_edges [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 2; 3; 4 ] ] in
  let { Ghd.Subedges.candidates; complete } = Ghd.Subedges.f_global h ~k:2 in
  Alcotest.(check bool) "complete" true complete;
  (* Every subedge is a proper subset of its parent edge. *)
  List.iter
    (fun (c : Detk.candidate) ->
      match c.source with
      | Decomp.Subedge p ->
          Alcotest.(check bool) "subset of parent" true
            (Bitset.subset c.vertices (H.edge h p));
          Alcotest.(check bool) "proper" true
            (not (Bitset.equal c.vertices (H.edge h p)))
      | _ -> Alcotest.fail "expected subedge source")
    candidates;
  (* e0 ∩ e1 = {1,2}: the subedges must contain {1,2}, {1}, {2}. *)
  let sets = List.map (fun (c : Detk.candidate) -> Bitset.to_list c.vertices) candidates in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "has %s" (String.concat "," (List.map string_of_int s)))
        true (List.mem s sets))
    [ [ 1; 2 ]; [ 1 ]; [ 2 ]; [ 2; 3 ]; [ 3 ] ]

let subedges_disjoint () =
  let h = H.of_int_edges [ [ 0; 1 ]; [ 2; 3 ] ] in
  let { Ghd.Subedges.candidates; complete } = Ghd.Subedges.f_global h ~k:2 in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check int) "no intersections, no subedges" 0 (List.length candidates)

let subedges_truncation () =
  let big =
    H.of_int_edges
      (List.init 12 (fun i -> List.init 14 (fun j -> (i + (j * 5)) mod 40)))
  in
  let { Ghd.Subedges.complete; _ } = Ghd.Subedges.f_global ~max_subedges:50 big ~k:3 in
  Alcotest.(check bool) "reports truncation" false complete

let subedges_local_smaller () =
  let h = H.of_int_edges [ [ 0; 1; 2 ]; [ 1; 2; 3 ]; [ 2; 3; 4 ]; [ 4; 5; 0 ] ] in
  let global = (Ghd.Subedges.f_global h ~k:2).Ghd.Subedges.candidates in
  let comp = Bitset.of_list 4 [ 0; 1 ] in
  let local = (Ghd.Subedges.f_local h ~k:2 ~comp).Ghd.Subedges.candidates in
  Alcotest.(check bool) "local no bigger than global" true
    (List.length local <= List.length global)

(* --- portfolio ----------------------------------------------------------- *)

let portfolio_yes () =
  match Ghd.Portfolio.check triangle ~k:2 with
  | Ghd.Portfolio.Yes (d, _) ->
      Alcotest.(check bool) "valid" true (Decomp.check_ghd triangle d = [])
  | _ -> Alcotest.fail "expected yes"

let portfolio_no () =
  match Ghd.Portfolio.check fano ~k:2 with
  | Ghd.Portfolio.No _ -> ()
  | _ -> Alcotest.fail "expected no"

let portfolio_timeout () =
  let budget () = Kit.Deadline.of_fuel 10 in
  match Ghd.Portfolio.check ~budget fano ~k:2 with
  | Ghd.Portfolio.All_timeout -> ()
  | _ -> Alcotest.fail "expected all-timeout with tiny fuel"

let balsep_timeout_propagates () =
  (* A fuel budget expiring mid-search must surface as Timeout (exact =
     false), never as a partial decomposition or an unproven "no". *)
  let a = Ghd.Bal_sep.solve ~deadline:(Kit.Deadline.of_fuel 5) fano ~k:2 in
  (match a.Ghd.Bal_sep.outcome with
  | Detk.Timeout -> ()
  | Detk.Decomposition _ | Detk.No_decomposition ->
      Alcotest.fail "expected a timeout with tiny fuel");
  Alcotest.(check bool) "timeout is inexact" false a.Ghd.Bal_sep.exact

let verdict_kind = function
  | Ghd.Portfolio.Yes _ -> `Yes
  | Ghd.Portfolio.No _ -> `No
  | Ghd.Portfolio.All_timeout -> `Timeout

let race_agrees_with_check () =
  List.iter
    (fun (name, h, k) ->
      let c = verdict_kind (Ghd.Portfolio.check h ~k) in
      let r = verdict_kind (Ghd.Portfolio.race h ~k) in
      Alcotest.(check bool)
        (Printf.sprintf "%s k=%d: race = check" name k)
        true (c = r))
    [
      ("triangle", triangle, 1); ("triangle", triangle, 2);
      ("fano", fano, 2); ("fano", fano, 3);
      ("C7", cycle 7, 2); ("wide-overlap", wide_overlap, 2);
    ]

let race_yes_is_valid () =
  match Ghd.Portfolio.race triangle ~k:2 with
  | Ghd.Portfolio.Yes (d, _) ->
      Alcotest.(check bool) "valid" true (Decomp.check_ghd triangle d = [])
  | _ -> Alcotest.fail "expected yes"

let race_timeout () =
  let budget () = Kit.Deadline.of_fuel 10 in
  match Ghd.Portfolio.race ~budget fano ~k:2 with
  | Ghd.Portfolio.All_timeout -> ()
  | _ -> Alcotest.fail "expected all-timeout with tiny fuel"

(* --- race loser discipline ------------------------------------------------ *)

let with_metrics f =
  Kit.Metrics.reset ();
  Kit.Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Kit.Metrics.enabled := false;
      Kit.Metrics.reset ())
    f

let solver_metric n =
  List.exists
    (fun p ->
      String.length n >= String.length p && String.sub n 0 (String.length p) = p)
    [ "balsep."; "detk."; "localbip."; "globalbip."; "subedges." ]

(* A member whose cancel flag is already up contributes nothing to the
   solver counters: Deadline.check raises before any search metric ticks.
   Pinned for every member. *)
let cancelled_member_never_ticks () =
  let c = Kit.Deadline.new_cancel () in
  Kit.Deadline.cancel c;
  let budget () = Kit.Deadline.with_cancel c Kit.Deadline.none in
  with_metrics (fun () ->
      (match
         Ghd.Portfolio.check ~budget fano ~k:2
       with
      | Ghd.Portfolio.All_timeout -> ()
      | _ -> Alcotest.fail "expected all-timeout under a cancelled flag");
      let snap = Kit.Metrics.snapshot () in
      List.iter
        (fun (n, v) ->
          if solver_metric n && v <> 0 then
            Alcotest.failf "cancelled member ticked %s = %d" n v)
        snap.Kit.Metrics.counters;
      List.iter
        (fun (n, (_, counts)) ->
          if solver_metric n && Array.fold_left ( + ) 0 counts > 0 then
            Alcotest.failf "cancelled member observed histogram %s" n)
        snap.Kit.Metrics.histograms)

(* The only post-cancellation traces a loser leaves are portfolio-side:
   exactly one cancelled_members tick paired with one cancel_latency
   span. Which members get cancelled (rather than finishing first) is
   schedule-dependent, so the test pins the pairing and the bound, not
   the count. *)
let race_cancel_accounting () =
  with_metrics (fun () ->
      ignore (Ghd.Portfolio.race wide_overlap ~k:2);
      ignore (Ghd.Portfolio.race fano ~k:2);
      let snap = Kit.Metrics.snapshot () in
      let cancelled = Kit.Metrics.get snap "portfolio.cancelled_members" in
      let spans, _ = Kit.Metrics.get_timer snap "portfolio.cancel_latency" in
      Alcotest.(check int) "one latency span per cancelled member" cancelled
        spans;
      Alcotest.(check bool) "at most members-1 cancelled per race" true
        (cancelled <= 2 * (List.length Ghd.Portfolio.order - 1)))

(* --- cross-validation properties ----------------------------------------- *)

let random_hg_gen =
  QCheck.Gen.(
    let* n_edges = int_range 2 6 in
    let* edges =
      list_repeat n_edges
        (let* a = int_range 1 4 in
         list_repeat a (int_bound 6))
    in
    let edges = List.map (List.sort_uniq compare) edges in
    let edges = List.filter (( <> ) []) edges in
    return (if edges = [] then [ [ 0 ] ] else edges))

let verdict o = match o with
  | Detk.Decomposition _ -> `Yes
  | Detk.No_decomposition -> `No
  | Detk.Timeout -> `Timeout

let prop_algorithms_agree =
  QCheck.Test.make ~name:"GlobalBIP, LocalBIP and BalSep agree" ~count:120
    (QCheck.make random_hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      List.for_all
        (fun k ->
          let g = verdict (run Global h k)
          and l = verdict (run Local h k)
          and b = verdict (run Balsep h k) in
          g = l && l = b)
        [ 1; 2 ])

let prop_ghd_valid =
  QCheck.Test.make ~name:"all produced GHDs validate" ~count:120
    (QCheck.make random_hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      List.for_all
        (fun (alg, k) ->
          match run alg h k with
          | Detk.Decomposition d -> Decomp.check_ghd h d = [] && Decomp.width d <= k
          | Detk.No_decomposition | Detk.Timeout -> true)
        [ (Global, 1); (Global, 2); (Local, 2); (Balsep, 1); (Balsep, 2); (Balsep, 3) ])

let prop_ghw_le_hw =
  QCheck.Test.make ~name:"HD yes at k implies GHD yes at k" ~count:120
    (QCheck.make random_hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      List.for_all
        (fun k ->
          match Detk.solve h ~k with
          | Detk.Decomposition _ ->
              List.for_all
                (fun alg ->
                  match run alg h k with
                  | Detk.Decomposition _ -> true
                  | Detk.No_decomposition | Detk.Timeout -> false)
                all_algs
          | Detk.No_decomposition | Detk.Timeout -> true)
        [ 1; 2 ])

let prop_ghd_no_implies_hd_no =
  QCheck.Test.make ~name:"GHD no at k implies HD no at k" ~count:120
    (QCheck.make random_hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      match run Balsep h 2 with
      | Detk.No_decomposition -> (
          match Detk.solve h ~k:2 with
          | Detk.No_decomposition -> true
          | Detk.Decomposition _ | Detk.Timeout -> false)
      | Detk.Decomposition _ | Detk.Timeout -> true)

let prop_balsep_ablation_sound =
  (* Without subedges BalSep stays sound: any yes is a valid GHD. *)
  QCheck.Test.make ~name:"BalSep without subedges is sound" ~count:80
    (QCheck.make random_hg_gen) (fun edges ->
      let h = H.of_int_edges edges in
      match (Ghd.Bal_sep.solve ~use_subedges:false h ~k:2).Ghd.Bal_sep.outcome with
      | Detk.Decomposition d -> Decomp.check_ghd h d = [] && Decomp.width d <= 2
      | Detk.No_decomposition | Detk.Timeout -> true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ghd"
    [
      ( "known ghw",
        [
          Alcotest.test_case "triangle" `Quick ghw_triangle;
          Alcotest.test_case "cycles" `Quick ghw_cycles;
          Alcotest.test_case "fano" `Quick ghw_fano;
          Alcotest.test_case "acyclic" `Quick ghw_acyclic;
          Alcotest.test_case "wide overlap" `Quick ghw_wide_overlap;
          Alcotest.test_case "disconnected" `Quick ghw_disconnected;
        ] );
      ( "subedges",
        [
          Alcotest.test_case "small exact" `Quick subedges_small;
          Alcotest.test_case "disjoint edges" `Quick subedges_disjoint;
          Alcotest.test_case "truncation reported" `Quick subedges_truncation;
          Alcotest.test_case "local vs global" `Quick subedges_local_smaller;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "yes" `Quick portfolio_yes;
          Alcotest.test_case "no" `Quick portfolio_no;
          Alcotest.test_case "timeout" `Quick portfolio_timeout;
          Alcotest.test_case "balsep timeout propagates" `Quick
            balsep_timeout_propagates;
          Alcotest.test_case "race = check" `Quick race_agrees_with_check;
          Alcotest.test_case "race yes valid" `Quick race_yes_is_valid;
          Alcotest.test_case "race timeout" `Quick race_timeout;
          Alcotest.test_case "cancelled member never ticks" `Quick
            cancelled_member_never_ticks;
          Alcotest.test_case "race cancel accounting" `Quick
            race_cancel_accounting;
        ] );
      ( "properties",
        [
          qt prop_algorithms_agree;
          qt prop_ghd_valid;
          qt prop_ghw_le_hw;
          qt prop_ghd_no_implies_hd_no;
          qt prop_balsep_ablation_sound;
        ] );
    ]
