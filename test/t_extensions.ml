(* Tests of message batching (conclusion of the paper) and the
   anti-entropy repair sweep (§3.2.3 / §5.3.4). *)

open Mdcc_storage
open Helpers
module Engine = Mdcc_sim.Engine
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator
module Messages = Mdcc_core.Messages
module Net = Mdcc_sim.Network

(* A payload as the tests name it: a Batch by its items. *)
let rec kind = function
  | Messages.Propose _ -> "propose"
  | Messages.Phase2b_fast _ -> "vote"
  | Messages.Visibility _ -> "visibility"
  | Messages.Phase2a _ -> "phase2a"
  | Messages.Phase2b_master _ -> "phase2b"
  | Messages.Learned _ -> "learned"
  | Messages.Batch items -> "[" ^ String.concat " " (List.map kind items) ^ "]"
  | _ -> "other"

(* Installs a meter on the cluster's network; the returned function lists
   every send since as (src, dst, kind), oldest first.  The meter sizes a
   payload just before it reports the send. *)
let record_wire cluster =
  let sends = ref [] and last = ref "" in
  Net.set_meter (Cluster.network cluster)
    {
      Net.m_size =
        (fun p ->
          last := kind p;
          0);
      m_on_send = (fun ~src ~dst ~bytes:_ -> sends := (src, dst, !last) :: !sends);
      m_on_deliver = (fun ~src:_ ~dst:_ ~bytes:_ -> ());
    };
  fun () -> List.rev !sends

(* Submit one transaction at DC 0 and run it to its Visibilities: the
   coordinator, the key's replicas, and every send. *)
let run_one ?(mode = Config.Full) ?master_dc_of updates =
  let engine, cluster = make_cluster ~mode ?master_dc_of ~items:10 () in
  let sent = record_wire cluster in
  let c = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let r = ref None in
  Coordinator.submit c (Txn.make ~id:"b1" ~updates) (fun o -> r := Some o);
  Engine.run ~until:30_000.0 engine;
  (match !r with
  | Some Txn.Committed -> ()
  | Some (Txn.Aborted _) | None -> Alcotest.fail "txn should commit");
  let replicas = Cluster.Layout.replicas (Cluster.layout cluster) (item 0) in
  (Coordinator.node_id c, replicas, sent ())

(* Proposals to the replicas in order, one vote message back from each
   replica (each sends its vote a one-way trip after the proposal, before
   the coordinator has heard a quorum), then Visibilities to the replicas
   in reverse: n messages each. *)
let check_costs ~payload (app, replicas, sent) =
  let n = List.length replicas in
  Alcotest.(check int) "3n messages" (3 * n) (List.length sent);
  let out = List.filteri (fun i _ -> i < n) sent
  and votes = List.filteri (fun i _ -> i >= n && i < 2 * n) sent
  and viz = List.filteri (fun i _ -> i >= 2 * n) sent in
  let triple = Alcotest.(list (triple int int string)) in
  Alcotest.check triple "proposals, replicas in order"
    (List.map (fun r -> (app, r, payload "propose")) replicas)
    out;
  Alcotest.check triple "one vote message per replica"
    (List.map (fun r -> (r, app, payload "vote")) replicas)
    (List.sort compare votes);
  Alcotest.check triple "Visibilities, replicas reversed"
    (List.map (fun r -> (app, r, payload "visibility")) (List.rev replicas))
    viz

let test_three_key_commit_cost () =
  (* Items 0-2 share the default spec's one partition: each step of the
     3-key commit sends one Batch per replica, as a 1-key commit sends one
     message. *)
  check_costs
    ~payload:(fun k -> Printf.sprintf "[%s %s %s]" k k k)
    (run_one
       [
         (item 0, Update.Delta [ ("stock", -1) ]);
         (item 1, Update.Delta [ ("stock", -1) ]);
         (item 2, Update.Delta [ ("stock", -1) ]);
       ])

let test_one_key_commit_cost () =
  (* A step with one message per destination folds nothing: the bare
     payloads go out in the unfolded order. *)
  check_costs ~payload:Fun.id (run_one [ (item 0, Update.Delta [ ("stock", -1) ]) ])

(* Multi mode with both keys mastered in DC 0: the classic round of each
   key runs from the master's one Batch of proposals, so its Phase2a,
   acks and Learned fold per destination too.  Unfolded it was 2 + 8 + 8
   + 2 + 10 = 30 messages. *)
let test_classic_round_from_batch () =
  let app, replicas, sent =
    run_one ~mode:Config.Multi
      ~master_dc_of:(fun _ -> 0)
      [ (item 0, Update.Delta [ ("stock", -1) ]); (item 1, Update.Delta [ ("stock", -1) ]) ]
  in
  let master = List.hd replicas and others = List.tl replicas in
  let sorted = List.sort compare in
  let triple = Alcotest.(list (triple int int string)) in
  Alcotest.check triple "one Batch of each kind per destination"
    (sorted
       (((app, master, "[propose propose]") :: (master, app, "[learned learned]")
        :: List.map (fun r -> (master, r, "[phase2a phase2a]")) others)
       @ List.map (fun r -> (r, master, "[phase2b phase2b]")) others
       @ List.map (fun r -> (app, r, "[visibility visibility]")) replicas))
    (sorted sent)

let test_anti_entropy_repairs_recovered_dc () =
  let engine, cluster = make_cluster ~items:5 () in
  Cluster.fail_dc cluster 4;
  (* Commit a mix of physical and commutative updates while DC 4 is dark:
     deltas are NOT self-healing on the next update, so only the sweep can
     repair them. *)
  let o1 = run_txn engine cluster ~dc:0 [ (item 0, Update.Delta [ ("stock", -7) ]) ] in
  let o2 =
    run_txn engine cluster ~dc:1 [ (item 1, Update.Physical { vread = 1; value = item_row 33 }) ]
  in
  Alcotest.(check bool) "committed during outage" true (is_committed o1 && is_committed o2);
  Cluster.recover_dc cluster 4;
  Alcotest.(check int) "dc4 delta-stale" 100 (stock_at cluster ~dc:4 0);
  Alcotest.(check int) "dc4 physical-stale" 100 (stock_at cluster ~dc:4 1);
  Cluster.sync_dc cluster 4;
  Engine.run ~until:(Engine.now engine +. 10_000.0) engine;
  Alcotest.(check int) "delta repaired" 93 (stock_at cluster ~dc:4 0);
  Alcotest.(check int) "physical repaired" 33 (stock_at cluster ~dc:4 1);
  (* Versions agree too. *)
  for i = 0 to 4 do
    Alcotest.(check int) "version agrees"
      (snd (Option.get (Cluster.peek cluster ~dc:0 (item i))))
      (snd (Option.get (Cluster.peek cluster ~dc:4 (item i))))
  done

let test_sync_is_noop_when_current () =
  let engine, cluster = make_cluster ~items:3 () in
  let o = run_txn engine cluster ~dc:0 [ (item 0, Update.Delta [ ("stock", -1) ]) ] in
  Alcotest.(check bool) "committed" true (is_committed o);
  let before = (Net.stats (Cluster.network cluster)).Net.sent in
  Cluster.sync_dc cluster 2;
  Engine.run ~until:(Engine.now engine +. 5_000.0) engine;
  let after = (Net.stats (Cluster.network cluster)).Net.sent in
  (* Only the probe messages themselves; no catch-up traffic back. *)
  Alcotest.(check bool) "no repair traffic" true (after - before <= 5);
  Alcotest.(check int) "state unchanged" 99 (stock_at cluster ~dc:2 0)

let suite =
  [
    Alcotest.test_case "3-key commit costs 3n messages" `Quick test_three_key_commit_cost;
    Alcotest.test_case "1-key commit costs 3n, unfolded" `Quick test_one_key_commit_cost;
    Alcotest.test_case "classic round from a Batch folds" `Quick test_classic_round_from_batch;
    Alcotest.test_case "anti-entropy repairs recovered DC" `Quick
      test_anti_entropy_repairs_recovered_dc;
    Alcotest.test_case "sync is a no-op when current" `Quick test_sync_is_noop_when_current;
  ]
