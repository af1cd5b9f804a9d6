(* Read strategies (§4.2): local read-committed reads may be stale; majority
   reads return the latest committed version. *)

open Mdcc_storage
open Helpers
module Engine = Mdcc_sim.Engine
module Cluster = Mdcc_core.Cluster
module Coordinator = Mdcc_core.Coordinator
module Config = Mdcc_core.Config
module Session = Mdcc_core.Session

let read_sync ~level engine c key =
  let result = ref None and got = ref false in
  Coordinator.read ~level c key (fun r ->
      result := r;
      got := true);
  Engine.run ~until:(Engine.now engine +. 10_000.0) engine;
  Alcotest.(check bool) "read answered" true !got;
  !result

let read_local_sync engine c key = read_sync ~level:`Local engine c key

let read_majority_sync engine c key = read_sync ~level:`Majority engine c key

let test_local_read_returns_committed () =
  let engine, cluster = make_cluster ~items:3 () in
  let c = Cluster.coordinator cluster ~dc:2 ~rank:0 in
  match read_local_sync engine c (item 0) with
  | Some (v, ver) ->
    Alcotest.(check int) "value" 100 (Value.get_int v "stock");
    Alcotest.(check int) "version" 1 ver
  | None -> Alcotest.fail "expected a row"

let test_local_read_missing () =
  let engine, cluster = make_cluster ~items:1 () in
  let c = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  Alcotest.(check bool) "missing row reads None" true
    (read_local_sync engine c (Key.make ~table:"item" ~id:"nope") = None)

let test_local_read_never_sees_uncommitted () =
  (* Read-committed isolation: while an option is outstanding (accepted but
     not executed), readers still see the old value. *)
  let engine, cluster = make_cluster ~items:1 () in
  let c0 = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  Coordinator.submit c0
    (Txn.make ~id:"w" ~updates:[ (item 0, Update.Physical { vread = 1; value = item_row 1 }) ])
    (fun _ -> ());
  (* 60ms: proposals have reached the acceptors (option outstanding) but no
     fast quorum has been learned yet, so nothing may be visible. *)
  Engine.run ~until:60.0 engine;
  let c1 = Cluster.coordinator cluster ~dc:1 ~rank:0 in
  (match read_local_sync engine c1 (item 0) with
  | Some (v, _) ->
    Alcotest.(check bool) "old or new, never partial" true
      (let s = Value.get_int v "stock" in
       s = 100 || s = 1)
  | None -> Alcotest.fail "row must exist");
  Engine.run engine

let test_stale_local_vs_majority () =
  (* DC 4 misses an update (outage); after recovery, a local read there is
     stale, while a majority read returns the fresh version. *)
  let engine, cluster = make_cluster ~items:1 () in
  Cluster.fail_dc cluster 4;
  let o =
    run_txn engine cluster ~dc:0 [ (item 0, Update.Physical { vread = 1; value = item_row 5 }) ]
  in
  Alcotest.(check bool) "committed during outage" true (is_committed o);
  Cluster.recover_dc cluster 4;
  let c4 = Cluster.coordinator cluster ~dc:4 ~rank:0 in
  (match read_local_sync engine c4 (item 0) with
  | Some (v, ver) ->
    Alcotest.(check int) "local read stale" 100 (Value.get_int v "stock");
    Alcotest.(check int) "stale version" 1 ver
  | None -> Alcotest.fail "row must exist");
  match read_majority_sync engine c4 (item 0) with
  | Some (v, ver) ->
    Alcotest.(check int) "majority read fresh" 5 (Value.get_int v "stock");
    Alcotest.(check int) "fresh version" 2 ver
  | None -> Alcotest.fail "row must exist"

let test_majority_read_of_deleted () =
  let engine, cluster = make_cluster ~items:1 () in
  let o = run_txn engine cluster ~dc:0 [ (item 0, Update.Delete { vread = 1 }) ] in
  Alcotest.(check bool) "deleted" true (is_committed o);
  let c = Cluster.coordinator cluster ~dc:3 ~rank:0 in
  Alcotest.(check bool) "majority read sees tombstone" true
    (read_majority_sync engine c (item 0) = None)

(* DC 4 misses [updates] (an outage while they commit), so after it
   recovers its local replica is stale for exactly those rows. *)
let stale_dc4 ~items updates =
  let engine, cluster = make_cluster ~items () in
  Cluster.fail_dc cluster 4;
  let o = run_txn engine cluster ~dc:0 updates in
  Alcotest.(check bool) "committed during outage" true (is_committed o);
  Cluster.recover_dc cluster 4;
  (engine, cluster, Cluster.coordinator cluster ~dc:4 ~rank:0)

(* Installs a meter on the cluster's network; the returned function
   lists the (src, dst) of every send since, oldest first. *)
let record_sends cluster =
  let sends = ref [] in
  Mdcc_sim.Network.set_meter (Cluster.network cluster)
    {
      Mdcc_sim.Network.m_size = Mdcc_core.Messages.size_of;
      m_on_send = (fun ~src ~dst ~bytes:_ -> sends := (src, dst) :: !sends);
      m_on_deliver = (fun ~src:_ ~dst:_ ~bytes:_ -> ());
    };
  fun () -> List.rev !sends

(* A [`Local] read on a cluster is answered by the co-located store: no
   message, the callback deferred, and the row a [Read_request] to the
   local replica answers. *)
let test_local_read_colocated () =
  let engine, cluster = make_cluster ~items:3 () in
  let o =
    run_txn engine cluster ~dc:0 [ (item 1, Update.Physical { vread = 1; value = item_row 7 }) ]
  in
  Alcotest.(check bool) "committed" true (is_committed o);
  let c = Cluster.coordinator cluster ~dc:2 ~rank:0 in
  let counter = Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry (Coordinator.obs c)) in
  let local0 = counter "read_local" and colocated0 = counter "read_colocated" in
  let sent = record_sends cluster in
  let answer = ref None in
  Coordinator.read ~level:`Local c (item 1) (fun r -> answer := Some r);
  Alcotest.(check bool) "deferred" true (!answer = None);
  Engine.run ~until:(Engine.now engine +. 10_000.0) engine;
  Alcotest.(check (list (pair int int))) "no message" [] (sent ());
  Alcotest.(check int) "counted co-located" 1 (counter "read_colocated" - colocated0);
  Alcotest.(check int) "no local read by message" 0 (counter "read_local" - local0);
  let by_message = ref None in
  Coordinator.read_row ~level:`Local c (item 1) (fun value version exists ->
      by_message := Some (if exists then Some (value, version) else None));
  Engine.run ~until:(Engine.now engine +. 10_000.0) engine;
  let app = Coordinator.node_id c in
  let node2 = Cluster.Layout.local_node (Cluster.layout cluster) ~dc:2 (item 1) in
  Alcotest.(check (list (pair int int))) "the message read: request and reply"
    [ (app, node2); (node2, app) ] (sent ());
  let stock = Option.map (Option.map (fun (v, ver) -> (Value.get_int v "stock", ver))) in
  Alcotest.(check (option (option (pair int int)))) "the row the message read answers"
    (stock !by_message) (stock !answer);
  Alcotest.(check (option (option (pair int int)))) "the committed write" (Some (Some (7, 2)))
    (stock !answer)

(* A coordinator wired without co-located stores reads by message: one
   [Read_request] to the replica in its data center. *)
let test_local_read_without_source () =
  let module Messages = Mdcc_core.Messages in
  let { Helpers.runtime; deliver; drain; _ } = Helpers.scripted_runtime () in
  let c =
    Coordinator.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:9
      ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  let counter = Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry (Coordinator.obs c)) in
  let answer = ref None in
  Coordinator.read ~level:`Local c (item 0) (fun r -> answer := Some r);
  let rids =
    List.filter_map
      (fun (dst, p) -> match p with Messages.Read_request { rid; _ } -> Some (dst, rid) | _ -> None)
      (drain ())
  in
  Alcotest.(check (list int)) "one Read_request, to the local replica" [ 0 ] (List.map fst rids);
  Alcotest.(check int) "counted as a local read" 1 (counter "read_local");
  Alcotest.(check int) "nothing co-located" 0 (counter "read_colocated");
  deliver ~src:0
    (Messages.Read_reply
       { rid = snd (List.hd rids); key = item 0; value = item_row 4; version = 3; exists = true });
  Alcotest.(check (option (option (pair int int)))) "the reply's row" (Some (Some (4, 3)))
    (Option.map (Option.map (fun (v, ver) -> (Value.get_int v "stock", ver))) !answer)

let session_read_sync engine session key =
  let result = ref None and got = ref false in
  Session.read session key (fun r ->
      result := r;
      got := true);
  Engine.run ~until:(Engine.now engine +. 10_000.0) engine;
  Alcotest.(check bool) "read answered" true !got;
  Option.map (fun (v, ver) -> (Value.get_int v "stock", ver)) !result

let test_session_read_colocated () =
  let engine, cluster = make_cluster ~items:1 () in
  let c = Cluster.coordinator cluster ~dc:2 ~rank:0 in
  let session = Session.create c in
  let counter = Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry (Coordinator.obs c)) in
  let sent = record_sends cluster in
  Alcotest.(check (option (pair int int))) "the loaded row, watermark 0" (Some (100, 1))
    (session_read_sync engine session (item 0));
  Alcotest.(check (list (pair int int))) "no message for the first read" [] (sent ());
  (* The session's own write moves the watermark to 2; once DC 2's
     replica has applied it, the co-located row meets it again. *)
  let committed = ref false in
  Session.submit session
    (Txn.make ~id:"own" ~updates:[ (item 0, Update.Physical { vread = 1; value = item_row 5 }) ])
    (fun o -> committed := is_committed o);
  Engine.run ~until:(Engine.now engine +. 60_000.0) engine;
  Alcotest.(check bool) "own write committed" true !committed;
  Alcotest.(check int) "watermark" 2 (Session.watermark session (item 0));
  let sent = record_sends cluster in
  Alcotest.(check (option (pair int int))) "the own write" (Some (5, 2))
    (session_read_sync engine session (item 0));
  Alcotest.(check (list (pair int int))) "no message for the second read" [] (sent ());
  Alcotest.(check int) "both answered co-located" 2 (counter "session_read_colocated");
  Alcotest.(check int) "no local read by message" 0 (counter "read_local")

let test_session_read_stale_by_message () =
  (* DC 4's replica misses version 2; the session learns of it through a
     majority read, so DC 4's co-located row (version 1) is below the
     watermark. *)
  let engine, cluster, c4 =
    stale_dc4 ~items:1 [ (item 0, Update.Physical { vread = 1; value = item_row 5 }) ]
  in
  let session = Session.create c4 in
  Session.read ~level:`Majority session (item 0) ignore;
  Engine.run ~until:(Engine.now engine +. 10_000.0) engine;
  Alcotest.(check int) "watermark" 2 (Session.watermark session (item 0));
  let counter = Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry (Coordinator.obs c4)) in
  let local0 = counter "read_local" and majority0 = counter "read_majority" in
  let sent = record_sends cluster in
  Alcotest.(check (option (pair int int))) "the fresh version" (Some (5, 2))
    (session_read_sync engine session (item 0));
  let app = Coordinator.node_id c4 in
  let node4 = Cluster.Layout.local_node (Cluster.layout cluster) ~dc:4 (item 0) in
  let replicas = Cluster.Layout.replicas (Cluster.layout cluster) (item 0) in
  Alcotest.(check (list (pair int int)))
    "the local round trip, then the majority read to every replica"
    ([ (app, node4); (node4, app) ] @ List.map (fun r -> (app, r)) replicas)
    (List.filteri (fun i _ -> i < 2 + List.length replicas) (sent ()));
  Alcotest.(check int) "one local read" 1 (counter "read_local" - local0);
  Alcotest.(check int) "one majority read" 1 (counter "read_majority" - majority0);
  Alcotest.(check int) "one stale upgrade" 1 (counter "session_read_stale_upgrade");
  Alcotest.(check int) "nothing answered co-located" 0 (counter "session_read_colocated")

(* DC 0's app server and a session on it, over a runtime that, while
   [held] is set, holds back every Visibility bound for DC 0's replica of
   [item 0] and its two nearest peers (DC 1 and DC 4) by [delay] ms
   ([infinity]: never delivered).  Those three are the first classic
   quorum to answer DC 0's majority read.  Returns the session, a
   function reading DC 0's replica of [item 0], [held] (initially unset)
   and the coordinator's counters. *)
let held_visibility_deployment ~delay =
  let module Runtime = Mdcc_core.Runtime in
  let module Layout = Cluster.Layout in
  let module Storage_node = Mdcc_core.Storage_node in
  let engine = Engine.create ~seed:42 in
  let layout, net = Cluster.scaffold ~engine ~spec:Cluster.Spec.default in
  let late = List.map (fun dc -> Layout.local_node layout ~dc (item 0)) [ 0; 1; 4 ] in
  let base = Runtime.of_network net and held = ref false in
  let send ~src ~dst payload =
    match payload with
    | Mdcc_core.Messages.Visibility _ when !held && List.mem dst late ->
      if delay < infinity then
        ignore (Engine.schedule engine ~after:delay (fun () -> Runtime.send base ~src ~dst payload))
    | _ -> Runtime.send base ~src ~dst payload
  in
  let runtime =
    Runtime.make ~now:(fun () -> Runtime.now base) ~send ~register:(Runtime.register base)
      ~set_timer:(fun ~after f ->
        let timer = Runtime.set_timer base ~after f in
        fun () -> Runtime.cancel_timer base timer)
      ~spawn:(Runtime.spawn base) ~rng:(Runtime.rng base) ~dc_of:(Runtime.dc_of base)
      ~trace:(fun ~tag:_ _ -> ())
      ~tracing:(fun () -> false)
      ()
  in
  let config = Config.make ~replication:5 ()
  and replicas = Layout.replicas layout
  and master_of = Layout.master_node layout in
  let nodes =
    Array.init (Layout.num_storage_nodes layout) (fun node_id ->
        Storage_node.create ~runtime ~config ~node_id ~schema:stock_schema ~replicas ~master_of ())
  in
  List.iter (fun r -> Storage_node.load nodes.(r) [ (item 0, item_row 100) ]) (replicas (item 0));
  let store node = Storage_node.store nodes.(node) in
  let c =
    Coordinator.create ~runtime ~config ~node_id:(Layout.app_node layout ~dc:0 ~rank:0) ~replicas
      ~master_of ~snapshot:(Layout.snapshot layout ~dc:0 store) ()
  in
  let counter = Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry (Coordinator.obs c)) in
  let dc0_row () = Store.read (store (List.hd late)) (item 0) in
  (engine, Session.create c, dc0_row, held, counter)

(* The session commits [update] on [item 0] as [id], on the fast path
   (about 170 ms), and the engine runs [for_ms] more. *)
let commit_own engine session ~id ~for_ms update =
  let committed = ref false in
  Session.submit session
    (Txn.make ~id ~updates:[ (item 0, update) ])
    (fun o -> committed := is_committed o);
  Engine.run ~until:(Engine.now engine +. for_ms) engine;
  Alcotest.(check bool) (id ^ " committed") true !committed

(* The deployment above with the hold set before the session's own write
   to [item 0] commits, well before the held-back Visibilities land. *)
let late_visibility_deployment ~delay =
  let engine, session, dc0_row, held, counter = held_visibility_deployment ~delay in
  held := true;
  commit_own engine session ~id:"own" ~for_ms:1_000.0
    (Update.Physical { vread = 1; value = item_row 5 });
  Alcotest.(check int) "watermark" 2 (Session.watermark session (item 0));
  Alcotest.(check (option int)) "DC 0's replica still at version 1" (Some 1)
    (Option.map snd (dc0_row ()));
  (engine, session, counter)

let test_session_read_late_visibility () =
  let engine, session, counter = late_visibility_deployment ~delay:2_000.0 in
  Alcotest.(check (option (pair int int))) "the own write, not the version below it" (Some (5, 2))
    (session_read_sync engine session (item 0));
  Alcotest.(check bool) "the stale majority answers were re-issued" true
    (counter "read_majority" > 1);
  Alcotest.(check int) "one upgrade per majority read" (counter "read_majority")
    (counter "session_read_stale_upgrade");
  Alcotest.(check int) "nothing dropped" 0 (counter "session_read_dropped")

let test_session_read_never_fresh () =
  let engine, session, counter = late_visibility_deployment ~delay:infinity in
  let answered = ref false in
  Session.read session (item 0) (fun _ -> answered := true);
  (* No [~until]: the run must end on its own. *)
  Engine.run engine;
  Alcotest.(check bool) "a stale answer is never delivered" false !answered;
  Alcotest.(check int) "eight majority reads" 8 (counter "read_majority");
  Alcotest.(check int) "each counted as an upgrade" 8 (counter "session_read_stale_upgrade");
  Alcotest.(check int) "then dropped" 1 (counter "session_read_dropped");
  (* The re-issues wait 100, 200, ..., 6400 ms: the drop comes after
     12.7 s of waiting, not after eight back-to-back rounds. *)
  Alcotest.(check bool) "the waits were spent" true (Engine.now engine > 1_000.0 +. 12_700.0)

(* The session deletes [item 0] and every replica applies it (version 2);
   then its Insert commits while the Visibility to DC 0, 1 and 4 is late.
   The Insert lands on the tombstone, at version 3, so DC 0's replica
   still answers the tombstone at version 2: the session must not take
   it for its own Insert. *)
let test_session_read_insert_over_tombstone () =
  let engine, session, dc0_row, held, counter = held_visibility_deployment ~delay:2_000.0 in
  commit_own engine session ~id:"own-delete" ~for_ms:10_000.0 (Update.Delete { vread = 1 });
  Alcotest.(check (option (pair int int))) "the tombstone everywhere" None
    (Option.map (fun (v, ver) -> (Value.get_int v "stock", ver)) (dc0_row ()));
  held := true;
  commit_own engine session ~id:"own-insert" ~for_ms:300.0 (Update.Insert (item_row 7));
  Alcotest.(check int) "watermark above the tombstone" 3 (Session.watermark session (item 0));
  Alcotest.(check (option (pair int int))) "the own Insert, not the tombstone" (Some (7, 3))
    (session_read_sync engine session (item 0));
  Alcotest.(check int) "nothing dropped" 0 (counter "session_read_dropped")

let test_session_read_after_own_delete () =
  let engine, cluster = make_cluster ~items:1 () in
  let c = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let session = Session.create c in
  let submit id update =
    let committed = ref false in
    Session.submit session
      (Txn.make ~id ~updates:[ (item 0, update) ])
      (fun o -> committed := is_committed o);
    Engine.run ~until:(Engine.now engine +. 60_000.0) engine;
    Alcotest.(check bool) (id ^ " committed") true !committed
  in
  submit "own-set" (Update.Physical { vread = 1; value = item_row 5 });
  submit "own-delete" (Update.Delete { vread = 2 });
  Alcotest.(check int) "watermark" 3 (Session.watermark session (item 0));
  let counter = Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry (Coordinator.obs c)) in
  let majority0 = counter "read_majority" and colocated0 = counter "session_read_colocated" in
  let sent = record_sends cluster in
  Alcotest.(check (option (pair int int))) "first read: the own delete" None
    (session_read_sync engine session (item 0));
  Alcotest.(check (option (pair int int))) "second read: the own delete" None
    (session_read_sync engine session (item 0));
  Alcotest.(check int) "no majority read" 0 (counter "read_majority" - majority0);
  Alcotest.(check int) "both answered co-located" 2 (counter "session_read_colocated" - colocated0);
  Alcotest.(check (list (pair int int))) "no message" [] (sent ())

let test_session_read_after_other_delete () =
  let engine, cluster = make_cluster ~items:1 () in
  let c0 = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let reader = Session.create c0 and deleter = Session.create (Cluster.coordinator cluster ~dc:1 ~rank:0) in
  Alcotest.(check (option (pair int int))) "the reader sees the loaded row" (Some (100, 1))
    (session_read_sync engine reader (item 0));
  Alcotest.(check int) "watermark" 1 (Session.watermark reader (item 0));
  let committed = ref false in
  Session.submit deleter
    (Txn.make ~id:"other-delete" ~updates:[ (item 0, Update.Delete { vread = 1 }) ])
    (fun o -> committed := is_committed o);
  Engine.run ~until:(Engine.now engine +. 60_000.0) engine;
  Alcotest.(check bool) "delete committed" true !committed;
  let counter = Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry (Coordinator.obs c0)) in
  let majority0 = counter "read_majority" and local0 = counter "read_local"
  and colocated0 = counter "session_read_colocated" in
  (* The tombstone (version 2) meets the watermark: the local reply
     answers, and the second read needs no message at all. *)
  Alcotest.(check (option (pair int int))) "first read: the other session's delete" None
    (session_read_sync engine reader (item 0));
  Alcotest.(check (option (pair int int))) "second read: the other session's delete" None
    (session_read_sync engine reader (item 0));
  Alcotest.(check int) "one local read" 1 (counter "read_local" - local0);
  Alcotest.(check int) "no majority read" 0 (counter "read_majority" - majority0);
  Alcotest.(check int) "the second answered co-located" 1
    (counter "session_read_colocated" - colocated0);
  Alcotest.(check int) "watermark at the tombstone" 2 (Session.watermark reader (item 0));
  Alcotest.(check int) "nothing dropped" 0 (counter "session_read_dropped")

(* A session's [`Local] read answers a present row co-located, with no
   message.  A deleted row goes by message: only the reply carries the
   tombstone's version, which the session observes. *)
let test_session_local_read () =
  let engine, cluster = make_cluster ~items:1 () in
  let c = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let session = Session.create c in
  let counter = Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry (Coordinator.obs c)) in
  let read () =
    let result = ref None in
    Session.read ~level:`Local session (item 0) (fun r -> result := Some r);
    Engine.run ~until:(Engine.now engine +. 10_000.0) engine;
    match !result with
    | Some r -> Option.map (fun (v, ver) -> (Value.get_int v "stock", ver)) r
    | None -> Alcotest.fail "read never answered"
  in
  let sent = record_sends cluster in
  Alcotest.(check (option (pair int int))) "the loaded row" (Some (100, 1)) (read ());
  Alcotest.(check (list (pair int int))) "no message for a present row" [] (sent ());
  Alcotest.(check int) "counted co-located" 1 (counter "read_colocated");
  Alcotest.(check int) "watermark observed" 1 (Session.watermark session (item 0));
  let o = run_txn engine cluster ~dc:1 [ (item 0, Update.Delete { vread = 1 }) ] in
  Alcotest.(check bool) "deleted by another app server" true (is_committed o);
  let local0 = counter "read_local" in
  let sent = record_sends cluster in
  Alcotest.(check (option (pair int int))) "the deletion" None (read ());
  let app = Coordinator.node_id c in
  let node0 = Cluster.Layout.local_node (Cluster.layout cluster) ~dc:0 (item 0) in
  Alcotest.(check (list (pair int int))) "a deleted row goes by message"
    [ (app, node0); (node0, app) ] (sent ());
  Alcotest.(check int) "one local read" 1 (counter "read_local" - local0);
  Alcotest.(check int) "the tombstone's version observed" 2 (Session.watermark session (item 0))

(* A `Majority read at a coordinator of five replicas whose replies the
   test delivers by hand: returns a function delivering one acceptor's
   reply, the answer so far and how often the callback ran. *)
let majority_read () =
  let module Messages = Mdcc_core.Messages in
  let { Helpers.runtime; deliver; drain; _ } = Helpers.scripted_runtime () in
  let c =
    Coordinator.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:9
      ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  let answer = ref None and calls = ref 0 in
  Coordinator.read ~level:`Majority c (item 0) (fun r ->
      answer := r;
      incr calls);
  let rid =
    List.fold_left
      (fun rid (_, p) -> match p with Messages.Read_request { rid; _ } -> rid | _ -> rid)
      (-1) (drain ())
  in
  let reply ?(exists = true) ~from version stock =
    deliver ~src:from
      (Messages.Read_reply { rid; key = item 0; value = item_row stock; version; exists })
  in
  let got () = Option.map (fun (v, ver) -> (Value.get_int v "stock", ver)) !answer in
  (reply, got, calls)

let stock_version = Alcotest.(option (pair int int))

let test_majority_returns_highest_version () =
  let reply, got, calls = majority_read () in
  reply ~from:0 3 30;
  reply ~from:1 5 50;
  Alcotest.(check int) "two of three replies: no answer yet" 0 !calls;
  reply ~from:2 4 40;
  Alcotest.(check int) "answered once" 1 !calls;
  Alcotest.(check stock_version) "the highest version" (Some (50, 5)) (got ())

let test_majority_tie_last_reply_wins () =
  let reply, got, _ = majority_read () in
  reply ~from:0 5 1;
  reply ~from:1 2 2;
  reply ~from:2 5 3;
  Alcotest.(check stock_version) "the later of two equal versions" (Some (3, 5)) (got ());
  let reply, got, calls = majority_read () in
  reply ~from:0 5 1;
  reply ~exists:false ~from:1 5 0;
  reply ~from:2 1 2;
  Alcotest.(check int) "answered" 1 !calls;
  Alcotest.(check stock_version) "the later reply is a deletion" None (got ())

let test_majority_duplicate_reply_ignored () =
  let reply, got, calls = majority_read () in
  reply ~from:0 1 10;
  reply ~from:0 9 90;
  reply ~from:1 2 20;
  Alcotest.(check int) "a repeated acceptor does not count" 0 !calls;
  reply ~from:2 3 30;
  Alcotest.(check int) "answered once" 1 !calls;
  Alcotest.(check stock_version) "the repeat's version is ignored" (Some (30, 3)) (got ());
  reply ~from:3 7 70;
  Alcotest.(check int) "a late reply changes nothing" 1 !calls

let suite =
  [
    Alcotest.test_case "majority read: highest version" `Quick
      test_majority_returns_highest_version;
    Alcotest.test_case "majority read: last of a tie wins" `Quick test_majority_tie_last_reply_wins;
    Alcotest.test_case "majority read: duplicate ignored" `Quick
      test_majority_duplicate_reply_ignored;
    Alcotest.test_case "local read returns committed" `Quick test_local_read_returns_committed;
    Alcotest.test_case "local read: co-located, no message" `Quick test_local_read_colocated;
    Alcotest.test_case "local read without co-located stores: one message" `Quick
      test_local_read_without_source;
    Alcotest.test_case "local read of missing row" `Quick test_local_read_missing;
    Alcotest.test_case "read-committed: no uncommitted data" `Quick
      test_local_read_never_sees_uncommitted;
    Alcotest.test_case "stale local vs fresh majority read" `Quick test_stale_local_vs_majority;
    Alcotest.test_case "majority read of deleted row" `Quick test_majority_read_of_deleted;
    Alcotest.test_case "session local read: deleted row by message" `Quick test_session_local_read;
    Alcotest.test_case "fresh session read: co-located, no message" `Quick
      test_session_read_colocated;
    Alcotest.test_case "stale session read: local message, then majority" `Quick
      test_session_read_stale_by_message;
    Alcotest.test_case "session read waits out a late Visibility" `Quick
      test_session_read_late_visibility;
    Alcotest.test_case "session read never fresh: dropped, engine stops" `Quick
      test_session_read_never_fresh;
    Alcotest.test_case "session read after own Insert over a tombstone" `Quick
      test_session_read_insert_over_tombstone;
    Alcotest.test_case "session reads after own delete: no majority read" `Quick
      test_session_read_after_own_delete;
    Alcotest.test_case "session reads after another's delete: no majority read" `Quick
      test_session_read_after_other_delete;
  ]
