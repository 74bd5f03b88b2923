(* Deadline polling in the sequential BalSep solver (Ghd.Bal_sep): the
   separator-candidate enumeration loop polls the deadline, so a budget
   too small for one node's enumeration still times the search out. *)

module H = Hg.Hypergraph
module Deadline = Kit.Deadline
module Metrics = Kit.Metrics

let with_metrics f =
  Metrics.reset ();
  Metrics.enabled := true;
  Fun.protect
    ~finally:(fun () ->
      Metrics.enabled := false;
      Metrics.reset ())
    f

let outcome_name = function
  | Detk.Decomposition _ -> "yes"
  | Detk.No_decomposition -> "no"
  | Detk.Timeout -> "timeout"

(* Regression: Deadline polls fire INSIDE the separator-candidate
   enumeration loop, not just at node expansions and separator trials.
   With [use_subedges:false] those three are the only poll sites, and
   node expansions and separator trials each pair 1:1 with a metric
   (the balsep.depth histogram and balsep.separators_tried), so
   [consumed - nodes - separators] counts exactly the in-loop polls —
   which the pre-fix code never made. *)
let enumeration_polls_deadline () =
  let fano =
    H.of_int_edges
      [
        [ 0; 1; 2 ]; [ 0; 3; 4 ]; [ 0; 5; 6 ]; [ 1; 3; 5 ];
        [ 1; 4; 6 ]; [ 2; 3; 6 ]; [ 2; 4; 5 ];
      ]
  in
  with_metrics (fun () ->
      let budget = 2_000_000 in
      let d = Deadline.of_fuel budget in
      (match
         (Ghd.Bal_sep.solve ~deadline:d ~use_subedges:false fano ~k:2)
           .Ghd.Bal_sep.outcome
       with
      | Detk.Timeout -> Alcotest.fail "unexpected timeout"
      | Detk.No_decomposition | Detk.Decomposition _ -> ());
      let consumed =
        budget - Option.value ~default:0 (Deadline.fuel_remaining d)
      in
      let snap = Metrics.snapshot () in
      let nodes =
        match Metrics.get_histogram snap "balsep.depth" with
        | Some (_, counts) -> Array.fold_left ( + ) 0 counts
        | None -> Alcotest.fail "balsep.depth histogram missing"
      in
      let separators = Metrics.get snap "balsep.separators_tried" in
      let in_loop = consumed - nodes - separators in
      Alcotest.(check bool)
        (Printf.sprintf
           "in-loop polls fired (consumed %d, nodes %d, separators %d)"
           consumed nodes separators)
        true (in_loop > 0))

(* And the fix has teeth: a budget too small for even one node's candidate
   enumeration still times the search out (the old once-per-node poll
   would sail past it inside the loop). *)
let enumeration_respects_tight_fuel () =
  let wide =
    H.of_int_edges (List.init 20 (fun i -> [ i; (i + 1) mod 20; (i + 9) mod 20 ]))
  in
  match
    (Ghd.Bal_sep.solve ~deadline:(Deadline.of_fuel 40) wide ~k:2).Ghd.Bal_sep.outcome
  with
  | Detk.Timeout -> ()
  | o -> Alcotest.failf "expected timeout on tight fuel, got %s" (outcome_name o)

let () =
  Alcotest.run "bal_sep"
    [
      ( "deadline polling",
        [
          Alcotest.test_case "polls inside enumeration" `Quick
            enumeration_polls_deadline;
          Alcotest.test_case "tight fuel times out" `Quick
            enumeration_respects_tight_fuel;
        ] );
    ]
