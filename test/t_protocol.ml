(* Integration tests of the MDCC commit protocol on the simulated WAN. *)

open Mdcc_storage
open Helpers
module Engine = Mdcc_sim.Engine
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator

let check_commit msg outcome = Alcotest.check outcome_testable msg Txn.Committed outcome

let check_abort msg outcome =
  Alcotest.check outcome_testable msg (Txn.Aborted Txn.Conflict) outcome

let test_single_update_commits () =
  let engine, cluster = make_cluster ~items:10 () in
  let outcome =
    run_txn engine cluster ~dc:0
      [ (item 0, Update.Physical { vread = 1; value = item_row 41 }) ]
  in
  check_commit "physical update commits" outcome;
  for dc = 0 to 4 do
    Alcotest.(check int) "replica converged" 41 (stock_at cluster ~dc 0)
  done

let test_multi_record_commit () =
  let engine, cluster = make_cluster ~items:10 () in
  let outcome =
    run_txn engine cluster ~dc:2
      [
        (item 1, Update.Physical { vread = 1; value = item_row 7 });
        (item 2, Update.Physical { vread = 1; value = item_row 8 });
        (item 3, Update.Delta [ ("stock", -5) ]);
      ]
  in
  check_commit "multi-record txn commits" outcome;
  Alcotest.(check int) "item1" 7 (stock_at cluster ~dc:0 1);
  Alcotest.(check int) "item2" 8 (stock_at cluster ~dc:4 2);
  Alcotest.(check int) "item3 delta applied" 95 (stock_at cluster ~dc:3 3)

let test_stale_vread_aborts () =
  let engine, cluster = make_cluster ~items:5 () in
  let o1 =
    run_txn engine cluster ~dc:0 [ (item 0, Update.Physical { vread = 1; value = item_row 50 }) ]
  in
  check_commit "first writer" o1;
  let o2 =
    run_txn engine cluster ~dc:1 [ (item 0, Update.Physical { vread = 1; value = item_row 60 }) ]
  in
  check_abort "stale vread rejected (no lost update)" o2;
  Alcotest.(check int) "value is first writer's" 50 (stock_at cluster ~dc:0 0)

let test_insert_and_conflict () =
  let engine, cluster = make_cluster ~items:0 () in
  let key = Key.make ~table:"order" ~id:"o1" in
  let o1 = run_txn engine cluster ~dc:0 [ (key, Update.Insert (item_row 1)) ] in
  check_commit "insert commits" o1;
  let o2 = run_txn engine cluster ~dc:1 [ (key, Update.Insert (item_row 2)) ] in
  check_abort "duplicate insert rejected" o2

let test_delete () =
  let engine, cluster = make_cluster ~items:3 () in
  let o = run_txn engine cluster ~dc:0 [ (item 1, Update.Delete { vread = 1 }) ] in
  check_commit "delete commits" o;
  Alcotest.(check bool) "record gone" true (Cluster.peek cluster ~dc:2 (item 1) = None)

let test_concurrent_conflict_one_wins () =
  let engine, cluster = make_cluster ~items:3 () in
  (* Two app-servers in different DCs race on the same record & version. *)
  let c0 = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let c1 = Cluster.coordinator cluster ~dc:4 ~rank:0 in
  let r0 = ref None and r1 = ref None in
  Mdcc_core.Coordinator.submit c0
    (Txn.make ~id:"race-a" ~updates:[ (item 0, Update.Physical { vread = 1; value = item_row 10 }) ])
    (fun o -> r0 := Some o);
  Mdcc_core.Coordinator.submit c1
    (Txn.make ~id:"race-b" ~updates:[ (item 0, Update.Physical { vread = 1; value = item_row 20 }) ])
    (fun o -> r1 := Some o);
  Engine.run ~until:60_000.0 engine;
  let committed =
    List.length (List.filter (fun r -> match !r with Some o -> is_committed o | None -> false) [ r0; r1 ])
  in
  Alcotest.(check int) "exactly one of two conflicting txns commits" 1 committed;
  let final = stock_at cluster ~dc:0 0 in
  Alcotest.(check bool) "value is the winner's" true (final = 10 || final = 20)

let test_commutative_decrements_all_commit () =
  let engine, cluster = make_cluster ~items:1 ~stock:100 () in
  (* Five concurrent decrements from five DCs: all commute, all commit. *)
  let results = ref [] in
  for dc = 0 to 4 do
    let c = Cluster.coordinator cluster ~dc ~rank:0 in
    Mdcc_core.Coordinator.submit c
      (Txn.make ~id:(Printf.sprintf "dec-%d" dc)
         ~updates:[ (item 0, Update.Delta [ ("stock", -3) ]) ])
      (fun o -> results := o :: !results)
  done;
  Engine.run ~until:60_000.0 engine;
  Alcotest.(check int) "all decided" 5 (List.length !results);
  Alcotest.(check int) "all committed" 5 (List.length (List.filter is_committed !results));
  for dc = 0 to 4 do
    Alcotest.(check int) "stock converged" 85 (stock_at cluster ~dc 0)
  done

let test_constraint_rejects_oversell () =
  let engine, cluster = make_cluster ~items:1 ~stock:2 () in
  let o = run_txn engine cluster ~dc:0 [ (item 0, Update.Delta [ ("stock", -5) ]) ] in
  Alcotest.(check bool) "oversell aborted" false (is_committed o);
  Alcotest.(check int) "stock unchanged" 2 (stock_at cluster ~dc:0 0)

let test_stock_never_negative_under_contention () =
  let engine, cluster = make_cluster ~items:1 ~stock:10 () in
  (* 20 concurrent decrements of 1 against stock 10: at most 10 commit and
     the stock never goes below 0 anywhere. *)
  let results = ref [] in
  for i = 0 to 19 do
    let c = Cluster.coordinator cluster ~dc:(i mod 5) ~rank:0 in
    Mdcc_core.Coordinator.submit c
      (Txn.make ~id:(Printf.sprintf "buy-%d" i) ~updates:[ (item 0, Update.Delta [ ("stock", -1) ]) ])
      (fun o -> results := o :: !results)
  done;
  Engine.run ~until:120_000.0 engine;
  Alcotest.(check int) "all decided" 20 (List.length !results);
  let commits = List.length (List.filter is_committed !results) in
  Alcotest.(check bool) "at most 10 commit" true (commits <= 10);
  Alcotest.(check bool) "some commit" true (commits > 0);
  for dc = 0 to 4 do
    let s = stock_at cluster ~dc 0 in
    Alcotest.(check bool) "stock >= 0" true (s >= 0);
    Alcotest.(check int) "stock consistent with commits" (10 - commits) s
  done

let test_atomicity_cross_record () =
  let engine, cluster = make_cluster ~items:5 () in
  (* t1 takes item0; t2 wants item0+item1 and must abort entirely: item1
     must not change even though its option may have been accepted. *)
  let o1 =
    run_txn engine cluster ~dc:0 [ (item 0, Update.Physical { vread = 1; value = item_row 1 }) ]
  in
  check_commit "t1" o1;
  let o2 =
    run_txn engine cluster ~dc:1
      [
        (item 0, Update.Physical { vread = 1; value = item_row 2 });
        (item 1, Update.Physical { vread = 1; value = item_row 2 });
      ]
  in
  check_abort "t2 aborts atomically" o2;
  Alcotest.(check int) "item1 untouched" 100 (stock_at cluster ~dc:0 1)

let run_mode_matrix test () =
  List.iter (fun mode -> test mode) [ Config.Full; Config.Multi ]

let test_modes_basic_commit mode =
  let engine, cluster = make_cluster ~mode ~items:4 () in
  let outcome =
    run_txn engine cluster ~dc:3
      [
        (item 0, Update.Physical { vread = 1; value = item_row 9 });
        (item 1, Update.Physical { vread = 1; value = item_row 9 });
      ]
  in
  check_commit (Config.mode_name mode ^ " commit") outcome;
  Alcotest.(check int) "applied" 9 (stock_at cluster ~dc:1 0)

let test_modes_conflict mode =
  let engine, cluster = make_cluster ~mode ~items:4 () in
  let o1 =
    run_txn engine cluster ~dc:0 [ (item 0, Update.Physical { vread = 1; value = item_row 5 }) ]
  in
  let o2 =
    run_txn engine cluster ~dc:1 [ (item 0, Update.Physical { vread = 1; value = item_row 6 }) ]
  in
  check_commit (Config.mode_name mode ^ " first") o1;
  check_abort (Config.mode_name mode ^ " second") o2

(* A 5-key transaction at a bare coordinator: the write-set is listed out
   of key order, and the fast votes arrive key by key.  Each proposal
   carries one update's option, naming the transaction, the coordinator
   and the whole write-set.  It decides only when the last key learns;
   proposals and Visibility go out in descending key order, each key's
   Visibility to its replicas in reverse. *)
let test_five_keys_decide_when_all_learned () =
  let module Messages = Mdcc_core.Messages in
  let module Woption = Mdcc_core.Woption in
  let { Helpers.runtime; deliver; drain; _ } = Helpers.scripted_runtime () in
  let replicas = [ 0; 1; 2; 3; 4 ] in
  let c =
    Coordinator.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:9
      ~replicas:(fun _ -> replicas)
      ~master_of:(fun _ -> 0)
      ()
  in
  let ids = [ 3; 0; 4; 1; 2 ] in
  let outcome = ref None in
  Coordinator.submit c
    (Txn.make ~id:"five"
       ~updates:(List.map (fun i -> (item i, Update.Delta [ ("stock", -1) ])) ids))
    (fun o -> outcome := Some o);
  let write_set = List.map item ids in
  let proposals =
    List.filter_map
      (fun (dst, p) ->
        match p with
        | Messages.Propose { woption = w; _ } ->
          Alcotest.(check string) "txid" "five" w.Woption.txid;
          Alcotest.(check int) "coordinator" 9 w.Woption.coordinator;
          Alcotest.(check bool) "whole write-set, in update order" true
            (List.equal Key.equal write_set w.Woption.write_set);
          Alcotest.(check bool) "commutative" true (Woption.is_commutative w);
          Some (w.Woption.key.Key.id, dst)
        | _ -> None)
      (drain ())
  in
  let descending = [ "4"; "3"; "2"; "1"; "0" ] in
  Alcotest.(check (list (pair string int)))
    "proposals: descending keys, replicas in order"
    (List.concat_map (fun id -> List.map (fun r -> (id, r)) replicas) descending)
    proposals;
  List.iteri
    (fun n i ->
      Alcotest.(check bool) (Printf.sprintf "undecided after %d learned" n) true (!outcome = None);
      List.iter
        (fun acceptor ->
          deliver ~src:acceptor
            (Messages.Phase2b_fast
               { key = item i; txid = "five"; decision = Woption.Accepted; acceptor }))
        [ 4; 2; 0; 1 ])
    ids;
  check_commit "decided when every key learned" (Option.get !outcome);
  Alcotest.(check int) "no longer in flight" 0 (Coordinator.inflight c);
  let visibility =
    List.filter_map
      (fun (dst, p) ->
        match p with
        | Messages.Visibility { key; committed = true; _ } -> Some (key.Key.id, dst)
        | _ -> None)
      (drain ())
  in
  Alcotest.(check (list (pair string int)))
    "visibility: descending keys, replicas reversed"
    (List.concat_map (fun id -> List.map (fun r -> (id, r)) (List.rev replicas)) descending)
    visibility

(* A fast quorum is 4 of 5.  Votes count by replica position, so a
   repeated vote and a vote from a node outside the key's replica group
   neither complete the quorum nor, as rejects, make it look impossible. *)
let test_fast_votes_count_once () =
  let module Messages = Mdcc_core.Messages in
  let module Woption = Mdcc_core.Woption in
  let { Helpers.runtime; deliver; drain; _ } = Helpers.scripted_runtime () in
  let c =
    Coordinator.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:9
      ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  let outcome = ref None in
  Coordinator.submit c
    (Txn.make ~id:"dup" ~updates:[ (item 0, Update.Delta [ ("stock", -1) ]) ])
    (fun o -> outcome := Some o);
  ignore (drain ());
  let vote acceptor decision =
    deliver ~src:acceptor
      (Messages.Phase2b_fast { key = item 0; txid = "dup"; decision; acceptor })
  in
  let recoveries () =
    List.length
      (List.filter
         (fun (_, p) -> match p with Messages.Start_recovery _ -> true | _ -> false)
         (drain ()))
  in
  List.iter (fun a -> vote a Woption.Accepted) [ 0; 0; 0; 0; 7; 1; 1; 2 ];
  Alcotest.(check bool) "three replicas accepted: undecided" true (!outcome = None);
  List.iter (fun a -> vote a Woption.Rejected) [ 3; 3; 7; 8 ];
  Alcotest.(check bool) "one replica rejected: undecided" true (!outcome = None);
  Alcotest.(check int) "no collision" 0 (recoveries ());
  vote 4 Woption.Accepted;
  check_commit "the fourth distinct accept decides" (Option.get !outcome)

let suite =
  [
    Alcotest.test_case "single update commits" `Quick test_single_update_commits;
    Alcotest.test_case "five keys decide when all learned" `Quick
      test_five_keys_decide_when_all_learned;
    Alcotest.test_case "repeated and foreign fast votes count once" `Quick
      test_fast_votes_count_once;
    Alcotest.test_case "multi-record commit" `Quick test_multi_record_commit;
    Alcotest.test_case "stale vread aborts" `Quick test_stale_vread_aborts;
    Alcotest.test_case "insert & duplicate insert" `Quick test_insert_and_conflict;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "concurrent conflict: one wins" `Quick test_concurrent_conflict_one_wins;
    Alcotest.test_case "commutative decrements all commit" `Quick
      test_commutative_decrements_all_commit;
    Alcotest.test_case "constraint rejects oversell" `Quick test_constraint_rejects_oversell;
    Alcotest.test_case "stock never negative under contention" `Quick
      test_stock_never_negative_under_contention;
    Alcotest.test_case "cross-record atomicity" `Quick test_atomicity_cross_record;
    Alcotest.test_case "all modes: basic commit" `Quick (run_mode_matrix test_modes_basic_commit);
    Alcotest.test_case "all modes: write-write conflict" `Quick
      (run_mode_matrix test_modes_conflict);
  ]
