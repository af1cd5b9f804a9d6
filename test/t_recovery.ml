(* Failure-scenario tests: data-center outages, master failure, dangling
   transactions (app-server death), straggler catch-up — §3.2.3 / §5.3.4. *)

open Mdcc_storage
open Helpers
module Engine = Mdcc_sim.Engine
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator
module Storage_node = Mdcc_core.Storage_node
module Topology = Mdcc_sim.Topology

let test_commit_with_failed_dc () =
  (* One data center down: fast commits still possible (4 of 5 answer). *)
  let engine, cluster = make_cluster ~items:5 () in
  Cluster.fail_dc cluster Topology.us_east;
  let o =
    run_txn engine cluster ~dc:0 [ (item 0, Update.Physical { vread = 1; value = item_row 9 }) ]
  in
  Alcotest.(check bool) "commits despite outage" true (is_committed o);
  Alcotest.(check int) "applied in live DCs" 9 (stock_at cluster ~dc:4 0)

let test_commit_with_failed_dc_multi () =
  (* Multi mode only needs a classic quorum: also survives an outage, as
     long as the master is alive. *)
  let master_dc_of _ = 0 in
  let engine, cluster = make_cluster ~mode:Config.Multi ~master_dc_of ~items:5 () in
  Cluster.fail_dc cluster 3;
  let o =
    run_txn engine cluster ~dc:0 [ (item 0, Update.Physical { vread = 1; value = item_row 9 }) ]
  in
  Alcotest.(check bool) "multi commits despite outage" true (is_committed o)

let test_master_failure_failover () =
  (* The record's master DC is dead: the coordinator's learn timeout rotates
     recovery to another replica, which acquires a higher classic ballot. *)
  let master_dc_of _ = 2 in
  let engine, cluster =
    make_cluster ~mode:Config.Multi ~master_dc_of ~learn_timeout:600.0 ~items:5 ()
  in
  Cluster.fail_dc cluster 2;
  let o =
    run_txn engine cluster ~dc:0 [ (item 0, Update.Physical { vread = 1; value = item_row 7 }) ]
  in
  Alcotest.(check bool) "commits after failover" true (is_committed o);
  Alcotest.(check int) "applied" 7 (stock_at cluster ~dc:0 0)

let test_recovered_dc_catches_up_on_next_update () =
  (* Records updated during an outage are healed by the next physical
     update (absolute value + version jump), as §5.3.4 describes. *)
  let engine, cluster = make_cluster ~items:5 () in
  Cluster.fail_dc cluster 4;
  let o1 =
    run_txn engine cluster ~dc:0 [ (item 0, Update.Physical { vread = 1; value = item_row 9 }) ]
  in
  Alcotest.(check bool) "commit during outage" true (is_committed o1);
  Cluster.recover_dc cluster 4;
  Alcotest.(check int) "dc4 still stale" 100 (stock_at cluster ~dc:4 0);
  let o2 =
    run_txn engine cluster ~dc:0 [ (item 0, Update.Physical { vread = 2; value = item_row 8 }) ]
  in
  Alcotest.(check bool) "next update commits" true (is_committed o2);
  Alcotest.(check int) "dc4 healed" 8 (stock_at cluster ~dc:4 0)

let test_dangling_txn_committed_by_recovery () =
  (* The app-server dies right after proposing: its options are accepted
     everywhere but no Visibility ever arrives.  The dangling-transaction
     scan must finish the commit on its behalf. *)
  let engine, cluster =
    make_cluster ~learn_timeout:500.0 ~txn_timeout:800.0 ~dangling_scan_every:200.0
      ~maintenance:true ~items:5 ()
  in
  let coordinator = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let got = ref None in
  Coordinator.submit coordinator
    (Txn.make ~id:"dangling-1"
       ~updates:
         [
           (item 0, Update.Physical { vread = 1; value = item_row 55 });
           (item 1, Update.Delta [ ("stock", -5) ]);
         ])
    (fun o -> got := Some o);
  (* Kill the app-server before any vote can reach it (votes need >= 40ms). *)
  ignore
    (Engine.schedule engine ~after:20.0 (fun () ->
         Mdcc_sim.Network.fail_node (Cluster.network cluster)
           (Coordinator.node_id coordinator)));
  Engine.run ~until:30_000.0 engine;
  Alcotest.(check bool) "coordinator never heard back" true (!got = None);
  (* Recovery must have executed the options at the replicas. *)
  for dc = 0 to 4 do
    Alcotest.(check int) "item0 executed" 55 (stock_at cluster ~dc 0);
    Alcotest.(check int) "item1 executed" 95 (stock_at cluster ~dc 1)
  done;
  let pendings =
    List.fold_left (fun acc n -> acc + Storage_node.pending_options n) 0
      (Cluster.storage_nodes cluster)
  in
  Alcotest.(check int) "no dangling options left" 0 pendings

let test_dangling_txn_never_proposed_key_aborts () =
  (* The app-server dies after proposing only ONE of two options.  No
     replica of the second key ever saw an option, so recovery must seal
     that instance as rejected and abort the transaction everywhere. *)
  let engine, cluster =
    make_cluster ~learn_timeout:500.0 ~txn_timeout:800.0 ~dangling_scan_every:200.0
      ~maintenance:true ~items:5 ()
  in
  (* Simulate the partial proposal by hand-crafting the option traffic of a
     dying coordinator: propose for item0 only, with a write-set naming both
     keys. *)
  let net = Cluster.network cluster in
  let dead_app = Coordinator.node_id (Cluster.coordinator cluster ~dc:0 ~rank:0) in
  let w : Mdcc_core.Woption.t =
    {
      Mdcc_core.Woption.txid = "dangling-2";
      key = item 0;
      update = Update.Physical { vread = 1; value = item_row 77 };
      write_set = [ item 0; item 1 ];
      coordinator = dead_app;
    }
  in
  List.iter
    (fun replica ->
      Mdcc_sim.Network.send net ~src:dead_app ~dst:replica
        (Mdcc_core.Messages.Propose { woption = w; route = `Fast }))
    (Cluster.Layout.replicas (Cluster.layout cluster) (item 0));
  Mdcc_sim.Network.fail_node net dead_app;
  Engine.run ~until:30_000.0 engine;
  (* The transaction aborted: neither item changed and nothing is pending. *)
  for dc = 0 to 4 do
    Alcotest.(check int) "item0 unchanged" 100 (stock_at cluster ~dc 0);
    Alcotest.(check int) "item1 unchanged" 100 (stock_at cluster ~dc 1)
  done;
  let pendings =
    List.fold_left (fun acc n -> acc + Storage_node.pending_options n) 0
      (Cluster.storage_nodes cluster)
  in
  Alcotest.(check int) "no dangling options left" 0 pendings

let test_collision_resolution_under_contention () =
  (* Many clients race on one record with physical updates: fast ballots
     collide, the master resolves with classic ballots, and exactly the
     serializable number of transactions commits. *)
  let engine, cluster = make_cluster ~mode:Config.Fast_only ~items:1 () in
  let results = ref [] in
  for i = 0 to 9 do
    let c = Cluster.coordinator cluster ~dc:(i mod 5) ~rank:0 in
    Coordinator.submit c
      (Txn.make ~id:(Printf.sprintf "race-%d" i)
         ~updates:[ (item 0, Update.Physical { vread = 1; value = item_row (10 + i) }) ])
      (fun o -> results := o :: !results)
  done;
  Engine.run ~until:60_000.0 engine;
  Alcotest.(check int) "all decided" 10 (List.length !results);
  (* At most one same-version writer can commit; all aborting is also legal
     (the paper's deadlock-avoidance policy may reject every option when
     each acceptor accepted a different first arrival, §3.2.2). *)
  let commits = List.length (List.filter is_committed !results) in
  Alcotest.(check bool) "at most one same-version writer commits" true (commits <= 1);
  let final = stock_at cluster ~dc:0 0 in
  if commits = 1 then
    Alcotest.(check bool) "final value is the winner's" true (final >= 10 && final <= 19)
  else Alcotest.(check int) "no commit: value unchanged" 100 final;
  for dc = 1 to 4 do
    Alcotest.(check int) "replicas agree" final (stock_at cluster ~dc 0)
  done

let test_fast_era_resumes_after_gamma () =
  (* After a collision the record runs classic for gamma instances, then
     fast proposals are accepted again. *)
  let engine, cluster = make_cluster ~mode:Config.Fast_only ~gamma:2 ~items:1 () in
  (* Trigger a collision. *)
  let r1 = ref None and r2 = ref None in
  let c0 = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let c1 = Cluster.coordinator cluster ~dc:4 ~rank:0 in
  Coordinator.submit c0
    (Txn.make ~id:"ca" ~updates:[ (item 0, Update.Physical { vread = 1; value = item_row 1 }) ])
    (fun o -> r1 := Some o);
  Coordinator.submit c1
    (Txn.make ~id:"cb" ~updates:[ (item 0, Update.Physical { vread = 1; value = item_row 2 }) ])
    (fun o -> r2 := Some o);
  Engine.run ~until:60_000.0 engine;
  (* Now run gamma (2) more updates through, then one more: all commit. *)
  let version = ref (Cluster.peek cluster ~dc:0 (item 0) |> Option.get |> snd) in
  for i = 0 to 3 do
    let o =
      run_txn engine cluster ~dc:1
        [ (item 0, Update.Physical { vread = !version; value = item_row (50 + i) }) ]
    in
    Alcotest.(check bool) (Printf.sprintf "update %d commits" i) true (is_committed o);
    incr version
  done;
  Alcotest.(check int) "final value" 53 (stock_at cluster ~dc:2 0)

let test_quorum_lost_then_restored () =
  (* With three DCs down not even a classic quorum exists: the transaction
     stays undecided (MDCC never guesses); when the DCs return, recovery
     finishes it. *)
  let engine, cluster =
    make_cluster ~learn_timeout:500.0 ~txn_timeout:1000.0 ~dangling_scan_every:300.0
      ~maintenance:true ~items:3 ()
  in
  Cluster.fail_dc cluster 2;
  Cluster.fail_dc cluster 3;
  Cluster.fail_dc cluster 4;
  let got = ref None in
  let c = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  Coordinator.submit c
    (Txn.make ~id:"q" ~updates:[ (item 0, Update.Physical { vread = 1; value = item_row 5 }) ])
    (fun o -> got := Some o);
  Engine.run ~until:5_000.0 engine;
  Alcotest.(check bool) "undecided without quorum" true (!got = None);
  Cluster.recover_dc cluster 2;
  Cluster.recover_dc cluster 3;
  Cluster.recover_dc cluster 4;
  Engine.run ~until:60_000.0 engine;
  (match !got with
  | Some o -> Alcotest.(check bool) "decided after recovery" true (is_committed o)
  | None -> Alcotest.fail "still undecided after quorum restored");
  Alcotest.(check int) "applied everywhere" 5 (stock_at cluster ~dc:3 0)

(* A storage node on a runtime that records every send and trace line and
   never fires a timer: the test plays the other replicas by hand.  Returns
   the node, its message handler and a drain of the sends so far. *)
let scripted_node ~replicas ~master_of =
  let handler = ref (fun ~src:_ _ -> ()) and sent = ref [] and lines = ref [] in
  let runtime =
    Mdcc_core.Runtime.make
      ~now:(fun () -> 0.0)
      ~send:(fun ~src:_ ~dst payload -> sent := (dst, payload) :: !sent)
      ~register:(fun _ h -> handler := h)
      ~set_timer:(fun ~after:_ _ -> ignore)
      ~spawn:(fun f -> f ())
      ~rng:(Mdcc_util.Rng.create 1) ~dc_of:(fun _ -> 0)
      ~trace:(fun ~tag:_ line -> lines := line :: !lines)
      ~tracing:(fun () -> true)
      ()
  in
  let node =
    Storage_node.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:0
      ~schema:stock_schema ~replicas ~master_of ()
  in
  let drain () =
    let s = List.rev !sent in
    sent := [];
    s
  in
  (node, (fun ~src payload -> !handler ~src payload), drain, lines)

let test_recovery_fold () =
  (* n = 5, f = 4: a Phase 1b quorum of 3 anchors a fast value with
     4 - (5 - 3) = 2 supporters.  Four options reach the master's fold:
     - d: a commutative delta whose highest classic vote is a reject (a
       lower classic accept and two fast accepts lose to it);
     - a: a classic-voted accept of a physical update at a stale version,
       which re-validation against the re-based state rejects;
     - b: a fast accept with 2 supporters, anchored and re-validated;
     - c: a fast accept with 1 supporter, free, conflicting with b. *)
  let module Messages = Mdcc_core.Messages in
  let module Woption = Mdcc_core.Woption in
  let module Ballot = Mdcc_paxos.Ballot in
  let key = item 0 in
  let node, handle, drain, lines =
    scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of:(fun _ -> 0)
  in
  Storage_node.load node [ (key, item_row 100) ];
  let opt txid update = { Woption.txid; key; update; write_set = [ key ]; coordinator = 9 } in
  let d = opt "d" (Update.Delta [ ("stock", -1) ])
  and a = opt "a" (Update.Physical { vread = 0; value = item_row 1 })
  and b = opt "b" (Update.Physical { vread = 1; value = item_row 2 })
  and c = opt "c" (Update.Physical { vread = 1; value = item_row 3 }) in
  handle ~src:9 (Messages.Propose { woption = d; route = `Fast });
  handle ~src:9 (Messages.Start_recovery { key; woption = None });
  let ballot = Ballot.classic ~number:2 ~proposer:0 in
  Alcotest.(check (list int)) "Phase 1a to the other replicas" [ 1; 2; 3; 4 ]
    (List.filter_map
       (fun (dst, p) ->
         match p with
         | Messages.Phase1a { ballot = b; _ } when Ballot.equal b ballot -> Some dst
         | _ -> None)
       (drain ()));
  let fast = Ballot.initial_fast in
  let vote woption decision ballot = { Messages.woption; decision; ballot } in
  let phase1b src votes =
    handle ~src
      (Messages.Phase1b
         {
           key;
           ballot;
           ok = true;
           promised = ballot;
           votes;
           version = 1;
           value = item_row 100;
           exists = true;
           included = [];
           decided = [];
         })
  in
  phase1b 1
    [
      vote d Woption.Rejected (Ballot.classic ~number:1 ~proposer:3);
      vote a Woption.Accepted (Ballot.classic ~number:1 ~proposer:2);
      vote b Woption.Accepted fast;
    ];
  phase1b 2
    [
      vote d Woption.Accepted (Ballot.classic ~number:1 ~proposer:1);
      vote b Woption.Accepted fast;
      vote c Woption.Accepted fast;
    ];
  let proposals =
    List.filter_map
      (fun (dst, p) ->
        match p with
        | Messages.Phase2a { woption; decision; ballot = b; _ }
          when dst = 1 && Ballot.equal b ballot ->
          Some (woption.Woption.txid, decision)
        | _ -> None)
      (drain ())
  in
  let decision = Alcotest.testable Woption.pp_decision ( = ) in
  let expected =
    [ ("d", Woption.Rejected); ("a", Woption.Rejected); ("b", Woption.Accepted);
      ("c", Woption.Rejected) ]
  in
  Alcotest.(check (list (pair string decision)))
    "re-proposals: classic by ballot descending, then fast, then free" expected proposals;
  Alcotest.(check (list string)) "resolved counts"
    [ "recovery resolved item/0: 4 options (3 forced, 1 free)" ]
    (List.filter (fun l -> contains ~needle:"recovery resolved" l) !lines);
  (* Two more acks make a classic quorum with the master's own vote. *)
  List.iter
    (fun src ->
      List.iter
        (fun (txid, decision) ->
          handle ~src (Messages.Phase2b_master { key; txid; ballot; ok = true; decision }))
        proposals)
    [ 1; 2 ];
  Alcotest.(check (list (pair string decision)))
    "learned by the coordinator" expected
    (List.filter_map
       (fun (dst, p) ->
         match p with
         | Messages.Learned { txid; decision; _ } when dst = 9 -> Some (txid, decision)
         | _ -> None)
       (drain ()))

let test_sync_targets () =
  (* Node 0 masters item 0 (replicas 0, 1, 2) but not item 1 (replicas 3,
     0, 2; master 1). *)
  let module Messages = Mdcc_core.Messages in
  let replicas k = if Key.equal k (item 0) then [ 0; 1; 2 ] else [ 3; 0; 2 ] in
  let master_of k = if Key.equal k (item 0) then 0 else 1 in
  let node, _, drain, _ = scripted_node ~replicas ~master_of in
  Storage_node.load node [ (item 0, item_row 1); (item 1, item_row 2) ];
  let digest = Messages.applied_digest Mdcc_storage.Txn.Map.empty in
  let requests () =
    List.map
      (fun (dst, p) ->
        match p with
        | Messages.Sync_request { entries } ->
          (dst, List.map (fun (k, v, dg) -> (Key.to_string k, v, dg)) entries)
        | _ -> Alcotest.fail "not a Sync_request")
      (drain ())
  in
  let entries = Alcotest.(list (pair int (list (triple string int int)))) in
  Storage_node.sync_with_masters node;
  Alcotest.check entries "masters: the mastered key is skipped"
    [ (1, [ ("item/1", 1, digest) ]) ]
    (requests ());
  Storage_node.sync_with_peers node;
  Alcotest.check entries "peers: every other replica of both keys"
    [
      (1, [ ("item/0", 1, digest) ]);
      (2, [ ("item/1", 1, digest); ("item/0", 1, digest) ]);
      (3, [ ("item/1", 1, digest) ]);
    ]
    (requests ())

let suite =
  [
    Alcotest.test_case "commit with failed DC (fast)" `Quick test_commit_with_failed_dc;
    Alcotest.test_case "commit with failed DC (multi)" `Quick test_commit_with_failed_dc_multi;
    Alcotest.test_case "master failover" `Quick test_master_failure_failover;
    Alcotest.test_case "recovered DC heals on next update" `Quick
      test_recovered_dc_catches_up_on_next_update;
    Alcotest.test_case "dangling txn committed by recovery" `Quick
      test_dangling_txn_committed_by_recovery;
    Alcotest.test_case "dangling txn with unproposed key aborts" `Quick
      test_dangling_txn_never_proposed_key_aborts;
    Alcotest.test_case "contention: collisions resolved, one winner" `Quick
      test_collision_resolution_under_contention;
    Alcotest.test_case "fast era resumes after gamma" `Quick test_fast_era_resumes_after_gamma;
    Alcotest.test_case "quorum lost then restored" `Quick test_quorum_lost_then_restored;
    Alcotest.test_case "master recovery fold" `Quick test_recovery_fold;
    Alcotest.test_case "sync sweep targets" `Quick test_sync_targets;
  ]
