(* The sharded keyspace: pinned cross-partition transactions, the
   co-located [`Local] read, the [Cluster.Spec] smart constructor, the
   partition-aware checker extensions, and the full 150-seed shard-nemesis
   sweep. *)

open Mdcc_storage
open Helpers
module Engine = Mdcc_sim.Engine
module Cluster = Mdcc_core.Cluster
module Layout = Cluster.Layout
module Coordinator = Mdcc_core.Coordinator
module History = Mdcc_core.History
module Event = Mdcc_core.Event
module Checker = Mdcc_chaos.Checker
module Nemesis = Mdcc_chaos.Nemesis
module Runner = Mdcc_chaos.Runner
module Sweep = Mdcc_chaos.Sweep
module Obs = Mdcc_obs.Obs
module Registry = Mdcc_obs.Registry

(* ---- Spec smart constructor ---- *)

let rejects f =
  match f () with
  | _ -> false
  | exception Mdcc_util.Invariant.Violation _ -> true

let test_spec_constructor () =
  Alcotest.(check int) "default is one partition" 1 Cluster.Spec.default.partitions;
  Alcotest.(check bool) "partitions < 1 rejected" true
    (rejects (fun () -> Cluster.Spec.make ~partitions:0 ()));
  Alcotest.(check bool) "app_servers < 1 rejected" true
    (rejects (fun () -> Cluster.Spec.make ~app_servers_per_dc:0 ()));
  Alcotest.(check bool) "drop probability > 1 rejected" true
    (rejects (fun () -> Cluster.Spec.make ~drop_probability:1.5 ()))

(* Two pre-loaded items that hash to different partitions; their replica
   groups must be disjoint node sets for the cross-partition tests to mean
   anything. *)
let cross_pair cluster items =
  let p0 = Layout.partition (Cluster.layout cluster) (item 0) in
  let rec find i =
    if i >= items then Alcotest.fail "no item in a second partition"
    else if Layout.partition (Cluster.layout cluster) (item i) <> p0 then i
    else find (i + 1)
  in
  (0, find 1)

(* ---- Pinned cross-partition commit: atomic across both groups ---- *)

let test_cross_partition_commit () =
  let engine, cluster = make_cluster ~partitions:4 ~items:16 () in
  let a, b = cross_pair cluster 16 in
  Alcotest.(check bool) "replica groups differ" true
    (Layout.replicas (Cluster.layout cluster) (item a)
     <> Layout.replicas (Cluster.layout cluster) (item b));
  let updates =
    [
      (item a, Update.Physical { vread = 1; value = item_row 7 });
      (item b, Update.Physical { vread = 1; value = item_row 9 });
    ]
  in
  let outcome = run_txn engine cluster ~dc:0 updates in
  Alcotest.check outcome_testable "spanning txn commits" Txn.Committed outcome;
  (* Both writes visible at version 2 in every data center: the commit
     crossed both Paxos groups atomically. *)
  for dc = 0 to Cluster.num_dcs cluster - 1 do
    Alcotest.(check int) (Printf.sprintf "item %d stock at dc%d" a dc) 7 (stock_at cluster ~dc a);
    Alcotest.(check int) (Printf.sprintf "item %d stock at dc%d" b dc) 9 (stock_at cluster ~dc b);
    List.iter
      (fun i ->
        match Cluster.peek cluster ~dc (item i) with
        | Some (_, version) -> Alcotest.(check int) "version advanced" 2 version
        | None -> Alcotest.fail "item missing")
      [ a; b ]
  done

(* ---- Pinned cross-partition abort: no partial visibility ---- *)

let test_cross_partition_abort () =
  let engine, cluster = make_cluster ~partitions:4 ~items:16 () in
  let a, b = cross_pair cluster 16 in
  (* Valid vread on [a]'s group, stale vread on [b]'s: the coordinator
     learns a rejection from one group and must void the other. *)
  let updates =
    [
      (item a, Update.Physical { vread = 1; value = item_row 7 });
      (item b, Update.Physical { vread = 99; value = item_row 9 });
    ]
  in
  (match run_txn engine cluster ~dc:0 updates with
  | Txn.Aborted _ -> ()
  | Txn.Committed -> Alcotest.fail "stale-vread spanning txn must abort");
  (* Neither partition shows any trace of the aborted transaction. *)
  for dc = 0 to Cluster.num_dcs cluster - 1 do
    List.iter
      (fun i ->
        Alcotest.(check int) (Printf.sprintf "item %d untouched at dc%d" i dc) 100
          (stock_at cluster ~dc i);
        match Cluster.peek cluster ~dc (item i) with
        | Some (_, version) -> Alcotest.(check int) "version unchanged" 1 version
        | None -> Alcotest.fail "item missing")
      [ a; b ]
  done

(* ---- Co-located read fast path ---- *)

let test_snapshot_fast_path () =
  let engine, cluster = make_cluster ~partitions:4 ~items:8 () in
  let coordinator = Cluster.coordinator cluster ~dc:2 ~rank:0 in
  let reg = Obs.registry (Cluster.obs cluster) in
  let hit = ref None in
  Coordinator.read ~level:`Local coordinator (item 3) (fun r -> hit := Some r);
  (* The fast path sends zero messages but still defers its callback. *)
  Engine.run ~until:(Engine.now engine +. 1_000.0) engine;
  (match !hit with
  | Some (Some (value, version)) ->
    Alcotest.(check int) "snapshot value" 100 (Value.get_int value "stock");
    Alcotest.(check int) "snapshot version" 1 version
  | Some None -> Alcotest.fail "snapshot read missed a loaded row"
  | None -> Alcotest.fail "snapshot read callback never fired");
  Alcotest.(check bool) "co-located read counted" true
    (Registry.counter reg "read_colocated" >= 1);
  Alcotest.(check int) "no local read by message" 0 (Registry.counter reg "read_local")

(* ---- Checker: decision agreement ---- *)

let key id = Key.make ~table:"item" ~id
let stock n = Value.of_list [ ("stock", Value.Int n) ]

let history entries =
  let h = History.create () in
  List.iter (fun { History.at; node; event } -> History.record h ~at ~node event) entries;
  h

let invariants vs =
  List.sort_uniq String.compare (List.map (fun v -> v.Checker.invariant) vs)

let submitted ?(time = 0.0) txn = { History.at = time; node = 0; event = Event.Submitted txn }

let decided ?(time = 10.0) txid outcome =
  { History.at = time; node = 0; event = Event.Decided { txid; outcome } }

let applied ?(time = 20.0) ?(node = 0) txid k version value =
  { History.at = time; node; event = Event.Applied { txid; key = k; version; value; wrote = true } }

let voided ?(time = 20.0) ?(node = 0) txid k =
  { History.at = time; node; event = Event.Voided { txid; key = k } }
let write ?(value = stock 9) k vread = (k, Update.Physical { vread; value })

let test_decision_agreement_flagged () =
  let k = key "1" in
  let t1 = Txn.make ~id:"t1" ~updates:[ write k 1 ] in
  let vs =
    Checker.check
      (history
         [ submitted t1; decided "t1" Txn.Committed; decided "t1" (Txn.Aborted Txn.Conflict) ])
  in
  Alcotest.(check bool) "conflicting decisions flagged" true
    (List.mem "decision-agreement" (invariants vs));
  (* Re-announcing the same outcome (a recovery coordinator) is fine. *)
  let vs2 =
    Checker.check
      (history
         [
           submitted t1;
           decided "t1" Txn.Committed;
           decided ~time:30.0 "t1" Txn.Committed;
           applied "t1" k 2 (stock 9);
         ])
  in
  Alcotest.(check bool) "agreeing re-announcement passes" false
    (List.mem "decision-agreement" (invariants vs2))

(* ---- Checker: cross-partition atomicity ---- *)

(* Keys "a" and "b" placed in different groups by a toy hash. *)
let toy_partition_of k = if String.equal (Key.to_string k) "item/a" then 0 else 1

let test_cross_partition_checker () =
  let a = key "a" and b = key "b" in
  let t1 = Txn.make ~id:"t1" ~updates:[ write a 1; write b 1 ] in
  let torn =
    [ submitted t1; decided "t1" Txn.Committed; applied "t1" a 2 (stock 9); voided ~node:1 "t1" b ]
  in
  let vs = Checker.check ~partition_of:toy_partition_of (history torn) in
  Alcotest.(check bool) "torn commit attributed to groups" true
    (List.mem "cross-partition-atomicity" (invariants vs));
  (* Without a partition map everything is one group: only the plain
     atomic-visibility invariant fires. *)
  let vs1 = Checker.check (history torn) in
  Alcotest.(check bool) "inert on one group" false
    (List.mem "cross-partition-atomicity" (invariants vs1));
  Alcotest.(check bool) "plain atomicity still fires" true
    (List.mem "atomic-visibility" (invariants vs1));
  (* An abort that leaked an execution into one group. *)
  let leak =
    [ submitted t1; decided "t1" (Txn.Aborted Txn.Conflict); applied "t1" a 2 (stock 9) ]
  in
  let vs2 = Checker.check ~partition_of:toy_partition_of (history leak) in
  Alcotest.(check bool) "aborted leak flagged" true
    (List.mem "cross-partition-atomicity" (invariants vs2));
  (* A clean spanning commit passes. *)
  let clean =
    [
      submitted t1;
      decided "t1" Txn.Committed;
      applied "t1" a 2 (stock 9);
      applied ~node:1 "t1" b 2 (stock 9);
    ]
  in
  Alcotest.(check (list string))
    "clean spanning commit passes" []
    (invariants (Checker.check ~partition_of:toy_partition_of (history clean)))

(* ---- The 150-seed shard-nemesis sweep (the ISSUE's acceptance bar) ---- *)

let test_shard_sweep () =
  let specs =
    Sweep.specs ~seeds:50
      ~scenarios:[ Nemesis.shard_partition; Nemesis.shard_outage; Nemesis.shard_flap ]
      ()
  in
  let reports = Sweep.run ~jobs:2 specs in
  Alcotest.(check int) "150 runs" 150 (List.length reports);
  List.iter
    (fun r ->
      if not (Runner.ok r) then
        Alcotest.failf "seed %d %s: %s" r.Runner.r_seed r.Runner.r_scenario
          (Runner.report_to_string ~verbose:true r);
      Alcotest.(check int)
        (Printf.sprintf "seed %d %s: all decided" r.Runner.r_seed r.Runner.r_scenario)
        0 r.Runner.r_undecided)
    reports

(* Shard scenarios force a multi-partition cluster even from a default
   spec, and classic scenarios never do. *)
let test_effective_partitions () =
  Alcotest.(check int) "shard scenario widens" 4
    (Runner.effective_partitions (Runner.spec ~seed:1 ~scenario:Nemesis.shard_outage ()));
  Alcotest.(check int) "explicit partitions win when larger" 8
    (Runner.effective_partitions
       (Runner.spec ~seed:1 ~partitions:8 ~scenario:Nemesis.shard_flap ()));
  Alcotest.(check int) "classic scenario stays single-partition" 1
    (Runner.effective_partitions (Runner.spec ~seed:1 ~scenario:Nemesis.clean ()))

let suite =
  [
    Alcotest.test_case "spec smart constructor" `Quick test_spec_constructor;
    Alcotest.test_case "cross-partition commit is atomic (pinned)" `Quick
      test_cross_partition_commit;
    Alcotest.test_case "cross-partition abort leaves no trace (pinned)" `Quick
      test_cross_partition_abort;
    Alcotest.test_case "snapshot read fast path" `Quick test_snapshot_fast_path;
    Alcotest.test_case "decision agreement flagged" `Quick test_decision_agreement_flagged;
    Alcotest.test_case "cross-partition checker" `Quick test_cross_partition_checker;
    Alcotest.test_case "effective partitions" `Quick test_effective_partitions;
    Alcotest.test_case "150-seed shard-nemesis sweep" `Slow test_shard_sweep;
  ]
