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
   and the whole write-set.  It decides only when the last key learns.
   The keys share their replicas, so proposals and Visibilities each go
   out as one Batch per replica, its items in descending key order:
   proposals to the replicas in order, Visibilities in reverse. *)
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
  (* Each send as its destination and the key ids of its Batch. *)
  let batches f =
    List.map
      (fun (dst, p) ->
        match p with
        | Messages.Batch items -> (dst, Array.to_list (Array.map f items))
        | _ -> Alcotest.fail "a bare payload where a Batch was due")
      (drain ())
  in
  let proposals =
    batches (function
      | Messages.Propose { woption = w; _ } ->
        Alcotest.(check string) "txid" "five" w.Woption.txid;
        Alcotest.(check int) "coordinator" 9 w.Woption.coordinator;
        Alcotest.(check bool) "whole write-set, in update order" true
          (List.equal Key.equal write_set w.Woption.write_set);
        Alcotest.(check bool) "commutative" true (Woption.is_commutative w);
        w.Woption.key.Key.id
      | _ -> Alcotest.fail "not a proposal")
  in
  let descending = [ "4"; "3"; "2"; "1"; "0" ] in
  Alcotest.(check (list (pair int (list string))))
    "proposals: one Batch per replica in order, keys descending"
    (List.map (fun r -> (r, descending)) replicas)
    proposals;
  List.iteri
    (fun n i ->
      Alcotest.(check bool) (Printf.sprintf "undecided after %d learned" n) true (!outcome = None);
      List.iter
        (fun acceptor ->
          deliver ~src:acceptor
            (Helpers.fast_vote ~key:(item i) ~txid:"five" Woption.Accepted))
        [ 4; 2; 0; 1 ])
    ids;
  check_commit "decided when every key learned" (Option.get !outcome);
  Alcotest.(check int) "no longer in flight" 0 (Coordinator.inflight c);
  let visibility =
    batches (function
      | Messages.Visibility { woption = w; committed = true } -> w.Woption.key.Key.id
      | _ -> Alcotest.fail "not a committed Visibility")
  in
  Alcotest.(check (list (pair int (list string))))
    "visibility: one Batch per replica reversed, keys descending"
    (List.map (fun r -> (r, descending)) (List.rev replicas))
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
    deliver ~src:acceptor (Helpers.fast_vote ~key:(item 0) ~txid:"dup" decision)
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

(* A replica that already executed or voided a transaction answers its
   option with the transaction's outcome, a Visibility.  A commit counts
   as that key's accept; an abort decides the transaction aborted at once,
   and no key is learned Rejected on the strength of it. *)
let test_reported_outcome () =
  let module Span = Mdcc_obs.Span in
  let run ~committed =
    let { Helpers.runtime; deliver; drain; _ } = Helpers.scripted_runtime () in
    let obs = Mdcc_obs.Obs.create ~spans:true () in
    let c =
      Coordinator.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:9
        ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
        ~master_of:(fun _ -> 0)
        ~ctx:(Mdcc_core.Ctx.make ~obs ())
        ()
    in
    let outcome = ref None in
    Coordinator.submit c
      (Txn.make ~id:"told"
         ~updates:
           [ (item 0, Update.Delta [ ("stock", -1) ]); (item 1, Update.Delta [ ("stock", -1) ]) ])
      (fun o -> outcome := Some o);
    ignore (drain ());
    deliver ~src:2 (Helpers.visibility ~txid:"told" ~key:(item 0) (Update.Delta []) committed);
    let learns =
      match Mdcc_obs.Obs.spans obs with
      | None -> Alcotest.fail "spans are off"
      | Some sp ->
        List.filter_map
          (fun e ->
            if String.equal e.Span.ev_name "learn" then Some e.Span.ev_detail else None)
          (Span.events sp ~txid:"told")
    in
    (!outcome, learns, Coordinator.inflight c)
  in
  let outcome, learns, inflight = run ~committed:false in
  Alcotest.(check bool) "an abort decides at once" true (outcome = Some (Txn.Aborted Txn.Conflict));
  Alcotest.(check (list string)) "and learns nothing" [] learns;
  Alcotest.(check int) "no longer in flight" 0 inflight;
  let outcome, learns, _ = run ~committed:true in
  Alcotest.(check bool) "a commit waits for the other key" true (outcome = None);
  Alcotest.(check (list string)) "and learns its key accepted" [ "accepted" ] learns

(* The classic window (§3.3.2's γ policy) at a bare coordinator of five
   replicas, master 0.  [submit txid update] proposes a one-key
   transaction on item 0 and returns where its proposals went and by
   which route; [row] is the version of the co-located row, when [row]
   is given a store at all. *)
let window_coordinator ?(gamma = 100) ?row () =
  let module Messages = Mdcc_core.Messages in
  let { Helpers.runtime; deliver; drain; clock; _ } = Helpers.scripted_runtime () in
  let snapshot =
    Option.map
      (fun version ->
        { Coordinator.snap_read = (fun _ -> Some (item_row 100, !version));
          snap_scan = (fun ~table:_ -> []) })
      row
  in
  let c =
    Coordinator.create ~runtime
      ~config:(Config.make ~gamma ~replication:5 ())
      ~node_id:9
      ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0)
      ?snapshot ()
  in
  let routes () =
    List.filter_map
      (fun (dst, p) ->
        match p with
        | Messages.Propose { route = `Fast; _ } -> Some (dst, "fast")
        | Messages.Propose { route = `Classic; _ } -> Some (dst, "classic")
        | _ -> None)
      (drain ())
  in
  let submit txid update =
    Coordinator.submit c (Txn.make ~id:txid ~updates:[ (item 0, update) ]) ignore;
    routes ()
  in
  let redirect txid classic_until =
    deliver ~src:1 (Messages.Redirect { key = item 0; txid; master = 0; classic_until });
    routes ()
  in
  (submit, redirect, deliver, clock)

let physical vread = Update.Physical { vread; value = item_row 1 }

let fast = List.map (fun r -> (r, "fast")) [ 0; 1; 2; 3; 4 ]

let classic = [ (0, "classic") ]

let routes = Alcotest.(list (pair int string))

(* A Redirect names the end of the record's classic window; until the
   version known for the record reaches it, this coordinator proposes
   through the master, however much time has passed.  With no fast
   Propose, no replica has a proposal to redirect. *)
let test_window_outlasts_time () =
  let submit, redirect, _, clock = window_coordinator () in
  Alcotest.check routes "no window: fast" fast (submit "a" (physical 5));
  Alcotest.check routes "redirected: classic" classic (redirect "a" 105);
  clock := 2_500.0;
  Alcotest.check routes "2.5 s later, vread 6 < 105: classic" classic (submit "b" (physical 6));
  clock := 60_000.0;
  Alcotest.check routes "a minute later, vread 104: classic" classic
    (submit "c" (Update.Read_guard { vread = 104 }))

(* An option whose vread reached the window goes fast and drops it: a
   later option with an older vread goes fast too. *)
let test_window_reached_goes_fast () =
  let submit, redirect, _, _ = window_coordinator () in
  ignore (submit "a" (physical 5));
  ignore (redirect "a" 105);
  Alcotest.check routes "vread 105 >= 105: fast" fast (submit "b" (Update.Delete { vread = 105 }));
  Alcotest.check routes "the window is gone" fast (submit "c" (physical 7));
  (* A window reported below the one known does not shrink it. *)
  ignore (redirect "c" 110);
  ignore (redirect "c" 50);
  Alcotest.check routes "the furthest window holds" classic (submit "d" (physical 60))

(* An insert or a delta has no vread: it routes by the co-located row's
   version, and without a store it goes fast. *)
let test_window_by_colocated_row () =
  let delta = Update.Delta [ ("stock", -1) ] in
  let version = ref 7 in
  let submit, redirect, _, _ = window_coordinator ~row:version () in
  ignore (submit "a" delta);
  ignore (redirect "a" 10);
  Alcotest.check routes "row at 7 < 10: classic" classic (submit "b" delta);
  version := 10;
  Alcotest.check routes "row at 10: fast" fast (submit "c" delta);
  let submit, redirect, _, _ = window_coordinator () in
  ignore (submit "a" delta);
  ignore (redirect "a" 10);
  Alcotest.check routes "no store: fast" fast (submit "b" delta)

(* A collision sends the option to the master's recovery, which opens a
   window of γ versions: the next proposal goes classic for γ > 0 and
   fast for γ = 0, as the replicas will vote. *)
let test_collision_opens_gamma_window () =
  let module Woption = Mdcc_core.Woption in
  let collide gamma =
    let submit, _, deliver, _ = window_coordinator ~gamma () in
    ignore (submit "a" (physical 5));
    List.iter
      (fun (src, d) -> deliver ~src (Helpers.fast_vote ~key:(item 0) ~txid:"a" d))
      [ (0, Woption.Accepted); (1, Woption.Accepted); (2, Woption.Rejected);
        (3, Woption.Rejected) ];
    submit
  in
  let submit = collide 0 in
  Alcotest.check routes "gamma 0: fast" fast (submit "b" (physical 5));
  let submit = collide 100 in
  Alcotest.check routes "gamma 100, vread 6: classic" classic (submit "b" (physical 6));
  Alcotest.check routes "gamma 100, vread 105: fast" fast (submit "c" (physical 105))

let suite =
  [
    Alcotest.test_case "single update commits" `Quick test_single_update_commits;
    Alcotest.test_case "five keys decide when all learned" `Quick
      test_five_keys_decide_when_all_learned;
    Alcotest.test_case "repeated and foreign fast votes count once" `Quick
      test_fast_votes_count_once;
    Alcotest.test_case "a reported outcome is the transaction's" `Quick test_reported_outcome;
    Alcotest.test_case "a classic window outlasts time" `Quick test_window_outlasts_time;
    Alcotest.test_case "a reached window goes fast and goes" `Quick
      test_window_reached_goes_fast;
    Alcotest.test_case "a delta routes by the co-located row" `Quick
      test_window_by_colocated_row;
    Alcotest.test_case "a collision opens a gamma window" `Quick
      test_collision_opens_gamma_window;
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
