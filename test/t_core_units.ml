(* Direct unit tests of the smaller core modules: Config, Woption, Messages,
   Trace, and the Cluster wiring invariants. *)

open Mdcc_storage
module Config = Mdcc_core.Config
module Woption = Mdcc_core.Woption
module Messages = Mdcc_core.Messages
module Cluster = Mdcc_core.Cluster
module Layout = Cluster.Layout
module Engine = Mdcc_sim.Engine
module Topology = Mdcc_sim.Topology
module Ballot = Mdcc_paxos.Ballot

let test_config_quorums () =
  let c = Config.make ~replication:5 () in
  Alcotest.(check int) "classic 3/5" 3 (Config.classic_quorum c);
  Alcotest.(check int) "fast 4/5" 4 (Config.fast_quorum c);
  let c3 = Config.make ~replication:3 () in
  Alcotest.(check int) "classic 2/3" 2 (Config.classic_quorum c3);
  Alcotest.(check int) "fast 3/3" 3 (Config.fast_quorum c3);
  Alcotest.(check bool) "replication < 3 rejected" true
    (try
       ignore (Config.make ~replication:2 ());
       false
     with Mdcc_util.Invariant.Violation v ->
       String.equal v.Mdcc_util.Invariant.context "Config.make")

let test_config_mode_names () =
  Alcotest.(check string) "full" "MDCC" (Config.mode_name Config.Full);
  Alcotest.(check string) "multi" "Multi" (Config.mode_name Config.Multi)

let item i = Key.make ~table:"item" ~id:(string_of_int i)

(* The coordinator keeps one slot per key, so a write-set must not name a
   key twice: [Txn.t] is private, and both of its constructors check. *)
let test_txn_rejects_duplicate_key () =
  let raises name f =
    Alcotest.(check bool) name true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  raises "make: one key, two updates" (fun () ->
      Txn.make ~id:"d"
        ~updates:[ (item 0, Update.Delta [ ("stock", -1) ]); (item 0, Update.Insert Value.empty) ]);
  raises "serializable: one key read twice" (fun () ->
      Txn.serializable ~id:"s" ~reads:[ (item 1, 1); (item 1, 1) ] ~updates:[]);
  let txn =
    Txn.serializable ~id:"s" ~reads:[ (item 0, 1); (item 1, 2) ]
      ~updates:[ (item 0, Update.Delta [ ("stock", -1) ]) ]
  in
  Alcotest.(check (list string)) "a written key gets no read guard" [ "0"; "1" ]
    (List.map (fun (k : Key.t) -> k.Key.id) (Txn.keys txn))

(* One payload per constructor, with the byte count [Messages.size_of]
   charges for it.  The per-node byte counters are pinned outputs, so the
   size model must not drift when its implementation changes. *)
let size_pins () =
  let k = item 42 and k2 = Key.make ~table:"order" ~id:"7" in
  let row = Value.of_list [ ("stock", Value.Int 9); ("name", Value.Str "widget") ] in
  let w update =
    { Woption.txid = "txn17"; key = k; update; write_set = [ k; k2 ]; coordinator = 9 }
  in
  let delta = Update.Delta [ ("stock", -1); ("sold", 1) ] in
  let vote =
    { Messages.woption = w delta; decision = Woption.Accepted; ballot = Ballot.initial_fast }
  in
  let included =
    Txn.Map.of_list [ ("t1", delta); ("t2", Update.Physical { vread = 3; value = row }) ]
  in
  let rebase = { Messages.value = row; version = 4; exists = true; included } in
  let b = Ballot.classic ~number:2 ~proposer:1 in
  [
    ("propose insert", 73, Messages.Propose { woption = w (Update.Insert row); route = `Fast });
    ("propose delta", 73, Messages.Propose { woption = w delta; route = `Classic });
    ( "propose delete",
      52,
      Messages.Propose { woption = w (Update.Delete { vread = 2 }); route = `Fast } );
    ( "propose read guard",
      52,
      Messages.Propose { woption = w (Update.Read_guard { vread = 2 }); route = `Fast } );
    ("phase1a", 31, Messages.Phase1a { key = k; ballot = b });
    ( "phase1b",
      264,
      Messages.Phase1b
        {
          key = k;
          ballot = b;
          ok = true;
          promised = b;
          promise =
            { votes = [ vote; vote ]; rebase; decided = [ ("t9", false) ] };
        } );
    ( "phase2a",
      182,
      Messages.Phase2a
        {
          key = k;
          ballot = b;
          woption = w delta;
          decision = Woption.Accepted;
          classic_until = 9;
          rebase = Some rebase;
        } );
    ( "phase2b master",
      38,
      Messages.Phase2b_master
        { key = k; txid = "txn17"; ballot = b; ok = true } );
    ( "phase2b fast",
      33,
      Messages.Phase2b_fast { key = k; txid = "txn17"; decision = Woption.Accepted; acceptor = 3 }
    );
    ("learned", 29, Messages.Learned { key = k; txid = "txn17"; decision = Woption.Accepted });
    ("redirect", 36, Messages.Redirect { key = k; txid = "txn17"; master = 2; classic_until = 5 });
    ( "visibility",
      59,
      Messages.Visibility
        {
          txid = "txn17";
          key = k;
          update = Update.Physical { vread = 3; value = row };
          committed = true;
        } );
    ("start_recovery", 79, Messages.Start_recovery { key = k; woption = w delta });
    ("status_query", 28, Messages.Status_query { txid = "txn17"; key = k });
    ( "status_reply",
      97,
      Messages.Status_reply
        { txid = "txn17"; key = k; status = Messages.Status_pending vote; acceptor = 1 } );
    ("catchup_request", 23, Messages.Catchup_request { key = k });
    ("catchup", 113, Messages.Catchup { key = k; rebase });
    ("read_request", 27, Messages.Read_request { rid = 1; key = k });
    ( "read_reply",
      57,
      Messages.Read_reply { rid = 1; key = k; value = row; version = 4; exists = true } );
    ( "batch",
      76,
      Messages.Batch
        [
          Messages.Learned { key = k; txid = "txn17"; decision = Woption.Accepted };
          Messages.Phase1a { key = k2; ballot = b };
        ] );
    ("sync_request", 46, Messages.Sync_request { entries = [ (k, 4, 77); (k2, 1, 5) ] });
    ("sync_reply", 87, Messages.Sync_reply { key = k; version = 4; applied = included });
  ]

let test_messages_size_of_pinned () =
  List.iter
    (fun (name, bytes, payload) -> Alcotest.(check int) name bytes (Messages.size_of payload))
    (size_pins ())

let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ]

let make_cluster ~partitions =
  let engine = Engine.create ~seed:3 in
  let config = Config.make ~replication:5 () in
  Cluster.create ~engine
    ~spec:(Cluster.Spec.make ~partitions ~app_servers_per_dc:2 ())
    ~config ~schema ()

let test_cluster_replica_groups () =
  let cluster = make_cluster ~partitions:4 in
  let topo = Cluster.topology cluster in
  for i = 0 to 99 do
    let replicas = Layout.replicas (Cluster.layout cluster) (item i) in
    Alcotest.(check int) "five replicas" 5 (List.length replicas);
    (* One replica per data center, all on the same partition index. *)
    let dcs = List.map (Topology.dc_of topo) replicas |> List.sort_uniq Int.compare in
    Alcotest.(check (list int)) "one per DC" [ 0; 1; 2; 3; 4 ] dcs;
    let parts = List.map (fun r -> r mod 4) replicas |> List.sort_uniq Int.compare in
    Alcotest.(check int) "same partition" 1 (List.length parts);
    (* The master is one of the replicas. *)
    Alcotest.(check bool) "master in group" true
      (List.mem (Layout.master_node (Cluster.layout cluster) (item i)) replicas)
  done

let test_cluster_deterministic_mapping () =
  let c1 = make_cluster ~partitions:4 and c2 = make_cluster ~partitions:4 in
  for i = 0 to 49 do
    Alcotest.(check (list int)) "stable replica mapping"
      (Layout.replicas (Cluster.layout c1) (item i))
      (Layout.replicas (Cluster.layout c2) (item i))
  done

let test_cluster_coordinators () =
  let cluster = make_cluster ~partitions:1 in
  Alcotest.(check int) "5 DCs x 2 app servers" 10 (List.length (Cluster.coordinators cluster));
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Cluster.coordinator cluster ~dc:0 ~rank:2);
       false
     with Mdcc_util.Invariant.Violation v ->
       String.equal v.Mdcc_util.Invariant.context "Cluster.coordinator")

let test_cluster_load_and_peek () =
  let cluster = make_cluster ~partitions:2 in
  Cluster.load cluster [ (item 0, Value.of_list [ ("stock", Value.Int 5) ]) ];
  for dc = 0 to 4 do
    match Cluster.peek cluster ~dc (item 0) with
    | Some (v, 1) -> Alcotest.(check int) "loaded" 5 (Value.get_int v "stock")
    | Some (_, n) -> Alcotest.failf "unexpected version %d" n
    | None -> Alcotest.fail "row missing"
  done;
  Alcotest.(check bool) "absent key" true (Cluster.peek cluster ~dc:0 (item 1) = None)

(* Pinned network message counts on a seeded run, with and without
   batching.  The coordinator's broadcast paths (no pair list unbatched,
   [send_batched]'s single-destination fast path batched) must not change
   what goes on the wire: any
   drift in these counts means the optimization changed behavior. *)
let send_all_counts ~batching =
  let engine = Engine.create ~seed:13 in
  let config = Config.make ~batching ~replication:5 () in
  let cluster =
    Cluster.create ~engine ~spec:Cluster.Spec.default ~config ~schema ()
  in
  Cluster.load cluster
    (List.init 4 (fun i -> (item i, Value.of_list [ ("stock", Value.Int 50) ])));
  let coordinator = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let done_ = ref 0 in
  (* Single-key txns exercise the single-destination batches; multi-key
     txns exercise the fan-out path. *)
  List.iteri
    (fun n updates ->
      Mdcc_core.Coordinator.submit coordinator
        (Txn.make ~id:(Printf.sprintf "p%d" n) ~updates)
        (fun _ -> incr done_))
    [
      [ (item 0, Update.Delta [ ("stock", -1) ]) ];
      [ (item 1, Update.Delta [ ("stock", -2) ]); (item 2, Update.Delta [ ("stock", -1) ]) ];
      [ (item 3, Update.Delta [ ("stock", -1) ]) ];
      [ (item 0, Update.Delta [ ("stock", -1) ]); (item 3, Update.Delta [ ("stock", -1) ]) ];
    ];
  Engine.run ~until:60_000.0 engine;
  Alcotest.(check int) "all decided" 4 !done_;
  let stats = Mdcc_sim.Network.stats (Cluster.network cluster) in
  (stats.Mdcc_sim.Network.sent, stats.Mdcc_sim.Network.delivered)

let test_send_all_pinned_counts () =
  let sent_b, delivered_b = send_all_counts ~batching:true in
  Alcotest.(check (pair int int))
    "batching run message counts" (70, 70) (sent_b, delivered_b);
  let sent, delivered = send_all_counts ~batching:false in
  Alcotest.(check (pair int int))
    "non-batching run message counts" (90, 90) (sent, delivered)

let suite =
  [
    Alcotest.test_case "config quorums" `Quick test_config_quorums;
    Alcotest.test_case "send_all pinned message counts" `Quick
      test_send_all_pinned_counts;
    Alcotest.test_case "config mode names" `Quick test_config_mode_names;
    Alcotest.test_case "txn rejects a duplicate key" `Quick test_txn_rejects_duplicate_key;
    Alcotest.test_case "messages size_of pinned per constructor" `Quick
      test_messages_size_of_pinned;
    Alcotest.test_case "cluster replica groups" `Quick test_cluster_replica_groups;
    Alcotest.test_case "cluster deterministic mapping" `Quick test_cluster_deterministic_mapping;
    Alcotest.test_case "cluster coordinators" `Quick test_cluster_coordinators;
    Alcotest.test_case "cluster load & peek" `Quick test_cluster_load_and_peek;
  ]
