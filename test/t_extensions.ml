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
  | Messages.Start_recovery _ -> "start_recovery"
  | Messages.Batch items -> "[" ^ String.concat " " (Array.to_list (Array.map kind items)) ^ "]"
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

(* [record_wire] with the engine's clock: the returned function lists the
   sends since its last call as (time, src, dst, kind), oldest first. *)
let record_timed engine cluster =
  let sends = ref [] and last = ref "" in
  Net.set_meter (Cluster.network cluster)
    {
      Net.m_size =
        (fun p ->
          last := kind p;
          0);
      m_on_send =
        (fun ~src ~dst ~bytes:_ -> sends := (Engine.now engine, src, dst, !last) :: !sends);
      m_on_deliver = (fun ~src:_ ~dst:_ ~bytes:_ -> ());
    };
  fun () ->
    let s = List.rev !sends in
    sends := [];
    s

(* A closed-loop client at DC 0 over two partitions: the first
   transaction writes one item of each, and its callback submits the
   second, on another item of partition 0, at once or from a co-located
   read's callback.  Every Visibility of the first and every proposal of
   the second must leave at the first one's decision instant, as each
   did unfolded: one that left at another time would be missing from the
   (dst, kind) pairs compared. *)
let closed_loop ~via_read =
  let engine, cluster = make_cluster ~partitions:2 ~items:20 () in
  let layout = Cluster.layout cluster in
  let in_partition p =
    List.filter (fun i -> Cluster.Layout.partition layout (item i) = p) (List.init 20 Fun.id)
  in
  let a, b, d =
    match (in_partition 0, in_partition 1) with
    | a :: b :: _, d :: _ -> (a, b, d)
    | _ -> Alcotest.fail "20 items do not fill two partitions"
  in
  let c = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let sent = record_timed engine cluster in
  let decided_at = ref nan and second = ref None in
  let submit_second () =
    Coordinator.submit c
      (Txn.make ~id:"c2" ~updates:[ (item b, Update.Delta [ ("stock", -1) ]) ])
      (fun o -> second := Some o)
  in
  Coordinator.submit c
    (Txn.make ~id:"c1"
       ~updates:
         [ (item a, Update.Delta [ ("stock", -1) ]); (item d, Update.Delta [ ("stock", -1) ]) ])
    (fun o ->
      Alcotest.(check bool) "first commits" true (is_committed o);
      decided_at := Engine.now engine;
      if via_read then Coordinator.read ~level:`Local c (item b) (fun _ -> submit_second ())
      else submit_second ());
  Engine.run ~until:30_000.0 engine;
  Alcotest.(check bool) "second commits" true
    (match !second with Some o -> is_committed o | None -> false);
  let app = Coordinator.node_id c in
  let at_decision =
    List.filter_map
      (fun (at, src, dst, k) -> if src = app && at = !decided_at then Some (dst, k) else None)
      (sent ())
  in
  let folded = Cluster.Layout.replicas layout (item a)
  and bare = Cluster.Layout.replicas layout (item d) in
  Alcotest.(check (list (pair int string)))
    "one [visibility propose] to each shared replica, a bare visibility to the others"
    (List.sort compare
       (List.map (fun r -> (r, "[visibility propose]")) folded
       @ List.map (fun r -> (r, "visibility")) bare))
    (List.sort compare at_decision)

let test_closed_loop_folds () = closed_loop ~via_read:false

let test_closed_loop_folds_after_read () = closed_loop ~via_read:true

(* Two Redirects in one Batch, for two open options whose records share
   a master: the coordinator's classic re-proposals leave together, as
   one [propose propose] to that master. *)
let test_redirects_fold_per_master () =
  let engine, cluster = make_cluster ~items:10 () in
  let c = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let app = Coordinator.node_id c in
  let replicas = Cluster.Layout.replicas (Cluster.layout cluster) (item 0) in
  let master = List.nth replicas 2 in
  let sent = record_timed engine cluster in
  Coordinator.submit c
    (Txn.make ~id:"r1"
       ~updates:
         [ (item 0, Update.Delta [ ("stock", -1) ]); (item 1, Update.Delta [ ("stock", -1) ]) ])
    ignore;
  let redirect i =
    Messages.Redirect { key = item i; txid = "r1"; master; classic_until = 1_000 }
  in
  (* From the co-located replica, so the Batch arrives before any vote. *)
  Net.send (Cluster.network cluster) ~src:(List.hd replicas) ~dst:app
    (Messages.Batch [| redirect 0; redirect 1 |]);
  Engine.run ~until:30_000.0 engine;
  let reproposals =
    List.filter_map
      (fun (at, src, dst, k) ->
        if src = app && at > 0.0 && contains ~needle:"propose" k then Some (dst, k) else None)
      (sent ())
  in
  Alcotest.(check (list (pair int string))) "one message to the master"
    [ (master, "[propose propose]") ] reproposals

(* Two deciding votes at one instant, on a runtime whose spawned thunks
   wait until the test runs them: the first delivery holds the outbox
   and spawns its release, the second finds it held, joins it and spawns
   nothing.  The one release sends both transactions' Visibilities as
   one Batch per replica and ends the step, so the next submit sends at
   once. *)
let test_one_release_per_instant () =
  let spawned = Queue.create () and sent = ref [] and handler = ref (fun ~src:_ _ -> ()) in
  let runtime =
    Mdcc_core.Runtime.make
      ~now:(fun () -> 0.0)
      ~send:(fun ~src:_ ~dst payload -> sent := (dst, kind payload) :: !sent)
      ~register:(fun _ h -> handler := h)
      ~set_timer:(fun ~after:_ _ -> ignore)
      ~spawn:(fun f -> Queue.push f spawned)
      ~rng:(Mdcc_util.Rng.create 1) ~dc_of:(fun _ -> 0)
      ~trace:(fun ~tag:_ _ -> ())
      ~tracing:(fun () -> false)
      ()
  in
  let replicas = [ 0; 1; 2; 3; 4 ] in
  let c =
    Coordinator.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:9
      ~replicas:(fun _ -> replicas)
      ~master_of:(fun _ -> 0)
      ()
  in
  let submit txid i =
    Coordinator.submit c
      (Txn.make ~id:txid ~updates:[ (item i, Update.Delta [ ("stock", -1) ]) ])
      ignore
  in
  let vote txid i src =
    !handler ~src (fast_vote ~key:(item i) ~txid Mdcc_core.Woption.Accepted)
  in
  submit "x1" 0;
  submit "x2" 1;
  (* Three of five votes each: below the fast quorum of four. *)
  List.iter
    (fun src ->
      vote "x1" 0 src;
      vote "x2" 1 src)
    [ 0; 1; 2 ];
  sent := [];
  vote "x1" 0 3;
  vote "x2" 1 3;
  Alcotest.(check int) "one release spawned" 1 (Queue.length spawned);
  Alcotest.(check int) "nothing sent before it runs" 0 (List.length !sent);
  (Queue.pop spawned) ();
  Alcotest.(check (list (pair int string))) "one Batch of both Visibilities per replica"
    (List.map (fun r -> (r, "[visibility visibility]")) replicas)
    (List.sort compare !sent);
  sent := [];
  submit "x3" 2;
  Alcotest.(check int) "the next submit sends at once" 5 (List.length !sent)

(* A master's Phase 1 over replicas 1 and 2 and itself: the coordinator
   escalated "d", and both responders report a fast accept of "e", which
   anchors it.  The resolution re-proposes both in the Phase1b's
   delivery, so each replica gets the two Phase2a's as one Batch (no
   round trip is measured yet, so the epoch holds none back), where it
   got them one by one when only a Batch's items shared a step. *)
let test_resolution_folds () =
  let module Ballot = Mdcc_paxos.Ballot in
  let { runtime; deliver; drain; _ } = Helpers.scripted_runtime () in
  let key = item 0 in
  let node =
    Mdcc_core.Storage_node.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:0
      ~schema:stock_schema
      ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  Mdcc_core.Storage_node.load node [ (key, item_row 100) ];
  let opt txid =
    { Mdcc_core.Woption.txid; key; update = Update.Delta [ ("stock", -1) ]; write_set = [ key ];
      coordinator = 9 }
  in
  deliver ~src:9 (Messages.Start_recovery { key; woption = opt "d" });
  ignore (drain ());
  let ballot = Ballot.classic ~number:2 ~proposer:0 in
  let vote = { Messages.woption = opt "e"; decision = Mdcc_core.Woption.Accepted;
               ballot = Ballot.initial_fast } in
  let rebase =
    { Messages.value = item_row 100; version = 1; exists = true; included = Txn.Map.empty }
  in
  List.iter
    (fun src ->
      deliver ~src
        (Messages.Phase1b
           { key; ballot; ok = true; promised = ballot;
             promise = { votes = [ vote ]; rebase; decided = [] } }))
    [ 1; 2 ];
  Alcotest.(check (list (pair int string)))
    "one Batch of both Phase2a's per replica"
    (List.map (fun r -> (r, "[phase2a phase2a]")) [ 1; 2; 3; 4 ])
    (List.map (fun (dst, p) -> (dst, kind p)) (drain ()))

(* A learn timeout that escalates both keys of a transaction, each to
   its master, node 0: one step, so one message, where each escalation
   was sent bare. *)
let test_timeout_escalations_fold () =
  let { runtime; drain; timers; _ } = Helpers.scripted_runtime () in
  let c =
    Coordinator.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:9
      ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  Coordinator.submit c
    (Txn.make ~id:"t1"
       ~updates:
         [ (item 0, Update.Delta [ ("stock", -1) ]); (item 1, Update.Delta [ ("stock", -1) ]) ])
    ignore;
  ignore (drain ());
  (List.hd !timers) ();
  Alcotest.(check (list (pair int string))) "one message to the master"
    [ (0, "[start_recovery start_recovery]") ]
    (List.map (fun (dst, p) -> (dst, kind p)) (drain ()))

(* A coordinator's learn timeouts on one key, master node 0: the first
   two escalations go to the master as ever.  The master is heard from
   at 2,600 ms, so the third, 1,300 ms later, goes to it again; the
   fourth finds it silent for more than 2 x [learn_timeout] (2,400 ms)
   and rotates, to the escalation count's replica (node 3). *)
let test_reask_heard_master () =
  let { runtime; deliver; drain; clock; timers; _ } = Helpers.scripted_runtime () in
  let c =
    Coordinator.create ~runtime ~config:(Config.make ~replication:5 ()) ~node_id:9
      ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  Coordinator.submit c
    (Txn.make ~id:"t1" ~updates:[ (item 0, Update.Delta [ ("stock", -1) ]) ])
    ignore;
  ignore (drain ());
  let timeout at =
    clock := at;
    (List.hd !timers) ();
    List.map (fun (dst, p) -> (dst, kind p)) (drain ())
  in
  let first = timeout 1300.0 in
  clock := 2600.0;
  (* Any delivery counts, even one for a transaction long gone. *)
  deliver ~src:0 (fast_vote ~key:(item 0) ~txid:"gone" Mdcc_core.Woption.Accepted);
  let second = timeout 2600.0 in
  let third = timeout 3900.0 in
  let fourth = timeout 5200.0 in
  Alcotest.(check (list (list (pair int string))))
    "the master while heard from, then the rotation"
    [ [ (0, "start_recovery") ]; [ (0, "start_recovery") ]; [ (0, "start_recovery") ];
      [ (3, "start_recovery") ] ]
    [ first; second; third; fourth ]

(* A stable master, node 0, running three rounds on one record: two a
   coordinator proposed, one a node recovering the dangling "r" (node 7)
   escalated.  Acceptor 1 refuses the first for node 2's higher ballot. *)
let handed_over () =
  let module Ballot = Mdcc_paxos.Ballot in
  let ({ runtime; deliver; drain; _ } : Helpers.scripted) = Helpers.scripted_runtime () in
  let key = item 0 in
  let node =
    Mdcc_core.Storage_node.create ~runtime
      ~config:(Config.make ~mode:Config.Multi ~replication:5 ())
      ~node_id:0 ~schema:stock_schema
      ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  Mdcc_core.Storage_node.load node [ (key, item_row 100) ];
  let opt txid = option_of ~update:(Update.Delta [ ("stock", -1) ]) ~txid key in
  deliver ~src:9 (Messages.Propose { woption = opt "a"; route = `Classic });
  deliver ~src:9 (Messages.Propose { woption = opt "b"; route = `Classic });
  deliver ~src:7 (Messages.Start_recovery { key; woption = opt "r" });
  ignore (drain ());
  deliver ~src:1
    (Messages.Phase2b_master
       { key; txid = "a"; ballot = Ballot.classic ~number:3 ~proposer:2; ok = false });
  (deliver, drain, key)

let test_handover_one_batch () =
  let _, drain, _ = handed_over () in
  Alcotest.(check (list (pair int string))) "one Batch of every released option, to node 2"
    [ (2, "[start_recovery start_recovery start_recovery]") ]
    (List.map (fun (dst, p) -> (dst, kind p)) (drain ()))

let test_handover_tells_recoverer () =
  let deliver, drain, key = handed_over () in
  ignore (drain ());
  let learned txid = deliver ~src:2 (Messages.Learned { key; txid; decision = Accepted }) in
  learned "r";
  Alcotest.(check (list (pair int string))) "node 2's decision on r goes on to its recoverer"
    [ (7, "learned") ]
    (List.map (fun (dst, p) -> (dst, kind p)) (drain ()));
  learned "r";
  learned "a";
  Alcotest.(check (list (pair int string)))
    "once; a's coordinator hears node 2 itself" []
    (List.map (fun (dst, p) -> (dst, kind p)) (drain ()))

(* Multi mode, every key mastered by us-west's node 0, after one
   committed transaction has let the master measure every replica.  From
   us-west the two nearest replicas are us-east (node 1, 80 ms) and Tokyo
   (node 4, 120 ms); Ireland (node 2, 170 ms) is more than the epoch
   beyond Tokyo, and Singapore (node 3) further still. *)
let warm_master () =
  let engine, cluster = make_cluster ~mode:Config.Multi ~master_dc_of:(fun _ -> 0) ~items:10 () in
  Alcotest.(check bool) "warm-up commits" true
    (is_committed (run_txn engine cluster ~dc:0 [ (item 9, Update.Delta [ ("stock", -1) ]) ]));
  (engine, cluster, record_timed engine cluster)

(* Submit single-key transactions on [items] at DC 0 together and run
   them to their outcomes. *)
let submit_together engine cluster items =
  let c = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let outcomes = ref [] in
  List.iter
    (fun i ->
      Coordinator.submit c
        (Txn.make ~id:(txid ()) ~updates:[ (item i, Update.Delta [ ("stock", -1) ]) ])
        (fun o -> outcomes := o :: !outcomes))
    items;
  Engine.run ~until:(Engine.now engine +. 30_000.0) engine;
  Alcotest.(check int) "every transaction commits" (List.length items)
    (List.length (List.filter is_committed !outcomes))

(* The master's Phase2a sends, as (time, dst, kind). *)
let phase2a_sends sent =
  List.filter_map
    (fun (at, src, dst, k) ->
      let phase2a = k = "phase2a" || String.starts_with ~prefix:"[phase2a" k in
      if src = 0 && phase2a then Some (at, dst, k) else None)
    sent

(* When the first of [p2a] left. *)
let round_start p2a = match p2a with (at, _, _) :: _ -> at | [] -> Alcotest.fail "no Phase2a"

let test_far_replicas_wait_for_epoch () =
  let engine, cluster, sent = warm_master () in
  submit_together engine cluster [ 0; 1 ];
  let sent = sent () in
  let p2a = phase2a_sends sent in
  let start = round_start p2a in
  let at_once = List.filter (fun (at, _, _) -> at < start +. 1.0) p2a
  and later = List.filter (fun (at, _, _) -> at >= start +. 1.0) p2a in
  let pairs = Alcotest.(list (pair int string)) in
  Alcotest.check pairs "each round's Phase2a at once, bare, to the two nearest"
    [ (1, "phase2a"); (1, "phase2a"); (4, "phase2a"); (4, "phase2a") ]
    (List.sort compare (List.map (fun (_, dst, k) -> (dst, k)) at_once));
  Alcotest.check pairs "one Batch to each far replica when the epoch ends"
    [ (2, "[phase2a phase2a]"); (3, "[phase2a phase2a]") ]
    (List.sort compare (List.map (fun (_, dst, k) -> (dst, k)) later));
  List.iter
    (fun (at, _, _) ->
      Alcotest.(check (float 1.0)) "the epoch ends E after the first held send"
        (start +. Mdcc_core.Epoch.epoch_ms) at)
    later;
  (* The near replicas decide both rounds: the master learns them before
     either far replica answers, and each far replica answers once. *)
  let learned = List.filter (fun (_, src, _, k) -> src = 0 && k = "learned") sent
  and far_answers =
    List.filter (fun (_, src, dst, _) -> dst = 0 && (src = 2 || src = 3)) sent
  in
  Alcotest.(check int) "both rounds learned" 2 (List.length learned);
  Alcotest.(check (list (pair int string))) "one folded answer per far replica"
    [ (2, "[phase2b phase2b]"); (3, "[phase2b phase2b]") ]
    (List.sort compare (List.map (fun (_, src, _, k) -> (src, k)) far_answers));
  let last_learned = List.fold_left (fun acc (at, _, _, _) -> Float.max acc at) 0.0 learned in
  List.iter
    (fun (at, _, _, _) ->
      Alcotest.(check bool) "learned before the far answers" true (last_learned < at))
    far_answers

let test_dead_near_replica_replaced () =
  let engine, cluster, sent = warm_master () in
  (* us-east, the master's nearest replica, goes dark. *)
  Cluster.fail_dc cluster 1;
  submit_together engine cluster [ 0 ];
  let first = sent () in
  let start = round_start (phase2a_sends first) in
  let learned_at =
    match List.find_opt (fun (_, src, _, k) -> src = 0 && k = "learned") first with
    | Some (at, _, _, _) -> at
    | None -> Alcotest.fail "no Learned"
  in
  (* Tokyo and Ireland's folded answer decide it: Ireland hears the round
     when the epoch ends, one 170 ms round trip (jitter 5 %) before the
     master learns it. *)
  Alcotest.(check bool) "learned through a far replica, at most E late" true
    (learned_at -. start <= Mdcc_core.Epoch.epoch_ms +. (170.0 *. 1.15));
  (* Its probe unanswered, us-east now ranks behind Ireland. *)
  submit_together engine cluster [ 1 ];
  let second = sent () in
  let start = round_start (phase2a_sends second) in
  let split = List.partition (fun (at, _, _) -> at < start +. 1.0) (phase2a_sends second) in
  let dsts l = List.sort compare (List.map (fun (_, dst, _) -> dst) l) in
  Alcotest.(check (list int)) "Tokyo and Ireland at once" [ 2; 4 ] (dsts (fst split));
  Alcotest.(check (list int)) "us-east and Singapore in the epoch" [ 1; 3 ] (dsts (snd split))

let test_equal_round_trips_hold_nothing () =
  (* A master (node 0) of replicas 0-4 on a scripted runtime: every
     replica answers its first round 100 ms after it started, so all four
     measure alike and each later round's Phase2a goes to all at once,
     with no timer armed. *)
  let s = scripted_runtime () in
  let _node =
    Mdcc_core.Storage_node.create ~runtime:s.runtime
      ~config:(Config.make ~mode:Config.Multi ~replication:5 ())
      ~node_id:0 ~schema:stock_schema
      ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  let round txid =
    let w = option_of ~txid (item 0) in
    s.deliver ~src:9 (Messages.Propose { woption = w; route = `Classic });
    let phase2a =
      List.filter_map
        (fun (dst, p) -> match p with Messages.Phase2a _ -> Some dst | _ -> None)
        (s.drain ())
    in
    s.clock := !(s.clock) +. 100.0;
    List.iter
      (fun src ->
        s.deliver ~src
          (Messages.Phase2b_master
             { key = item 0; txid; ballot = Mdcc_paxos.Ballot.classic ~number:1 ~proposer:0;
               ok = true }))
      [ 1; 2; 3; 4 ];
    ignore (s.drain ());
    phase2a
  in
  Alcotest.(check (list int)) "first round: all at once" [ 1; 2; 3; 4 ] (round "e1");
  Alcotest.(check (list int)) "measured alike: all at once" [ 1; 2; 3; 4 ] (round "e2");
  Alcotest.(check (list int)) "and again" [ 1; 2; 3; 4 ] (round "e3");
  Alcotest.(check int) "no timer armed" 0 (List.length !(s.timers))

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
    Alcotest.test_case "a decision folds with the next submit" `Quick test_closed_loop_folds;
    Alcotest.test_case "and with a submit after a local read" `Quick
      test_closed_loop_folds_after_read;
    Alcotest.test_case "a Batch of Redirects folds per master" `Quick
      test_redirects_fold_per_master;
    Alcotest.test_case "one release per held instant" `Quick test_one_release_per_instant;
    Alcotest.test_case "a Phase 1 resolution's re-proposals leave as one Batch per replica"
      `Quick test_resolution_folds;
    Alcotest.test_case "a timeout that escalates two keys to one master sends one message"
      `Quick test_timeout_escalations_fold;
    Alcotest.test_case "far replicas wait for the epoch" `Quick test_far_replicas_wait_for_epoch;
    Alcotest.test_case "a dead near replica is replaced" `Quick test_dead_near_replica_replaced;
    Alcotest.test_case "equal round trips hold nothing" `Quick
      test_equal_round_trips_hold_nothing;
    Alcotest.test_case "anti-entropy repairs recovered DC" `Quick
      test_anti_entropy_repairs_recovered_dc;
    Alcotest.test_case "sync is a no-op when current" `Quick test_sync_is_noop_when_current;
    Alcotest.test_case "a timed-out key goes to a master heard from, else rotates" `Quick
      test_reask_heard_master;
    Alcotest.test_case "a refused master's options reach the new leader as one Batch" `Quick
      test_handover_one_batch;
    Alcotest.test_case "a recoverer that asked the old master learns the decision" `Quick
      test_handover_tells_recoverer;
  ]
