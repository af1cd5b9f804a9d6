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
  let engine, cluster = make_cluster ~mode:Config.Full ~items:1 () in
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
  let engine, cluster = make_cluster ~mode:Config.Full ~gamma:2 ~items:1 () in
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
   only fires a timer when the test does: the test plays the other
   replicas by hand.  [clock] is the runtime's time; [timers] holds every
   armed timer callback, newest first. *)
type scripted = {
  node : Storage_node.t;
  handle : src:int -> Mdcc_sim.Network.payload -> unit;
  drain : unit -> (int * Mdcc_sim.Network.payload) list;  (* the sends so far, in order *)
  lines : string list ref;
  clock : float ref;
  timers : (unit -> unit) list ref;
  delays : float list ref;  (* each timer's delay, in [timers]' order *)
}

let scripted_node ?mode ~replicas ~master_of () =
  let lines = ref [] in
  let { Helpers.runtime; deliver; drain; clock; timers; delays } =
    Helpers.scripted_runtime ~trace:(fun ~tag:_ line -> lines := line :: !lines) ()
  in
  let node =
    Storage_node.create ~runtime ~config:(Config.make ?mode ~replication:5 ()) ~node_id:0
      ~schema:stock_schema ~replicas ~master_of ()
  in
  { node; handle = deliver; drain; lines; clock; timers; delays }

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
  let { node; handle; drain; lines; _ } =
    scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of:(fun _ -> 0) ()
  in
  Storage_node.load node [ (key, item_row 100) ];
  let opt txid update = { Woption.txid; key; update; write_set = [ key ]; coordinator = 9 } in
  let d = opt "d" (Update.Delta [ ("stock", -1) ])
  and a = opt "a" (Update.Physical { vread = 0; value = item_row 1 })
  and b = opt "b" (Update.Physical { vread = 1; value = item_row 2 })
  and c = opt "c" (Update.Physical { vread = 1; value = item_row 3 }) in
  handle ~src:9 (Messages.Propose { woption = d; route = `Fast });
  handle ~src:9 (Messages.Start_recovery { key; woption = d });
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
           promise =
             {
               votes;
               rebase =
                 {
                   value = item_row 100;
                   version = 1;
                   exists = true;
                   included = Mdcc_storage.Txn.Map.empty;
                 };
               decided = [];
             };
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
      (Helpers.unbatch (drain ()))
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
        (fun (txid, _) -> handle ~src (Messages.Phase2b_master { key; txid; ballot; ok = true }))
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

let test_dangling_recovery_fold () =
  (* n = 5: a classic quorum is 3 replies, a fast quorum 4 accepts.  Node 0
     holds the first option of three dangling 2-key transactions whose
     coordinator (9) is silent; item i is mastered by node 1 + i mod 4.  One
     scan starts a recovery for each, and the test plays every other
     replica and master:
     - a (items 0, 1): node 0 has stock for item 0, so accepts from 0, 1
       (twice) and 2 are three distinct accepts, one short of a fast
       quorum that counting the repeat would reach, so item 0 escalates to
       its master with the reported option; item 1, which no replica
       reported, escalates with the placeholder; a decided reply then ends
       it;
     - b (items 2, 3): both learned accepted, so it commits;
     - c (items 4, 5): one learned rejected, so it aborts. *)
  let module Messages = Mdcc_core.Messages in
  let module Woption = Mdcc_core.Woption in
  let master_of (k : Key.t) = 1 + (int_of_string k.Key.id mod 4) in
  let { node; handle; drain; lines; clock; timers; _ } =
    scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of ()
  in
  Storage_node.load node [ (item 0, item_row 10) ];
  let opt txid i j =
    {
      Woption.txid;
      key = item i;
      update = Update.Delta [ ("stock", -1) ];
      write_set = [ item i; item j ];
      coordinator = 9;
    }
  in
  let a = opt "a" 0 1 and b = opt "b" 2 3 and c = opt "c" 4 5 in
  List.iter (fun w -> handle ~src:9 (Messages.Propose { woption = w; route = `Fast })) [ a; b; c ];
  clock := 1e9;
  Storage_node.start_maintenance node;
  (List.hd !timers) ();
  (* Node 0 answers its own status queries over the network. *)
  List.iter
    (fun (dst, p) ->
      match p with Messages.Status_reply _ when dst = 0 -> handle ~src:0 p | _ -> ())
    (Helpers.unbatch (drain ()));
  let update_str = function
    | Update.Delta _ -> "delta"
    | Update.Physical { vread; _ } -> Printf.sprintf "vread=%d" vread
    | Update.Insert _ | Update.Delete _ | Update.Read_guard _ -> "other"
  in
  let starts () =
    List.filter_map
      (fun (dst, p) ->
        match p with
        | Messages.Start_recovery { key; woption = w } ->
          Some
            ( dst,
              Key.to_string key,
              Printf.sprintf "%s %s by %d" w.Woption.txid
                (update_str w.Woption.update) w.Woption.coordinator )
        | _ -> None)
      (drain ())
  in
  let visibility txid =
    List.filter_map
      (fun (dst, p) ->
        match p with
        | Messages.Visibility { woption = w; committed } when String.equal w.Woption.txid txid ->
          Some
            ( dst,
              Key.to_string w.Woption.key,
              Printf.sprintf "%s %b" (update_str w.Woption.update) committed )
        | _ -> None)
      (Helpers.unbatch (drain ()))
  in
  let reply src i txid status =
    handle ~src (Messages.Status_reply { txid; key = item i; status; acceptor = src })
  in
  let accept =
    Messages.Status_pending
      { Messages.woption = a; decision = Woption.Accepted; ballot = Mdcc_paxos.Ballot.initial_fast }
  in
  let started = Alcotest.(list (triple int string string)) in
  reply 1 0 "a" accept;
  reply 1 0 "a" accept;
  Alcotest.check started "a duplicate reply does not count" [] (starts ());
  reply 2 0 "a" accept;
  reply 3 0 "a" Messages.Status_unknown;
  Alcotest.check started "three distinct accepts, no fast quorum: one escalation with the option"
    [ (1, "item/0", "a delta by 9") ]
    (starts ());
  reply 1 1 "a" Messages.Status_unknown;
  reply 2 1 "a" Messages.Status_unknown;
  Alcotest.check started "an unreported key escalates with the placeholder"
    [ (2, "item/1", "a vread=-1 by 0") ]
    (starts ());
  reply 3 1 "a" (Messages.Status_decided true);
  let everywhere key update = List.map (fun dst -> (dst, key, update)) [ 1; 2; 3; 4 ] in
  (* The finish is one step: each replica gets one Batch of the
     transaction's Visibilities, in write-set order. *)
  let per_replica = List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) in
  Alcotest.(check (list (triple int string string)))
    "a decided reply: visibility to every replica, in write-set order"
    (per_replica (everywhere "item/0" "delta true" @ everywhere "item/1" "vread=-1 true"))
    (visibility "a");
  let learned i txid decision =
    handle ~src:(master_of (item i)) (Messages.Learned { key = item i; txid; decision })
  in
  learned 2 "b" Woption.Accepted;
  Alcotest.(check int) "one key learned: still open" 0 (List.length (visibility "b"));
  learned 3 "b" Woption.Accepted;
  Alcotest.(check (list (triple int string string)))
    "all learned accepted: commit"
    (per_replica (everywhere "item/2" "delta true" @ everywhere "item/3" "vread=-1 true"))
    (visibility "b");
  learned 4 "c" Woption.Accepted;
  learned 5 "c" Woption.Rejected;
  Alcotest.(check (list (triple int string string)))
    "one learned rejected: abort"
    (per_replica (everywhere "item/4" "delta false" @ everywhere "item/5" "vread=-1 false"))
    (visibility "c");
  Alcotest.(check (list string)) "finished once each"
    [ "txn recovery a -> commit"; "txn recovery b -> commit"; "txn recovery c -> abort" ]
    (List.rev
       (List.filter (fun l -> contains ~needle:"txn recovery " l && contains ~needle:"->" l) !lines));
  Alcotest.(check int) "every decided recovery leaves the table" 0 (Storage_node.recovering node)

(* Node 0 holds fast votes for both options of "a" (items 0 and 1) from
   a silent coordinator 9.  One scan recovers "a" from item 1's option;
   node 0's status replies to itself are held back, and replica 1's
   report that "a" committed arrives first, so the recovery finishes with
   no reply for item 0.  Node 0 then issues its own pending option for
   item 0, not the placeholder, and executes it. *)
let test_early_finish_own_option () =
  let module Messages = Mdcc_core.Messages in
  let module Woption = Mdcc_core.Woption in
  let { node; handle; drain; lines; clock; timers; _ } =
    scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of:(fun _ -> 1) ()
  in
  Storage_node.load node [ (item 0, item_row 10); (item 1, item_row 10) ];
  let opt i =
    { Woption.txid = "a"; key = item i; update = Update.Delta [ ("stock", -1) ];
      write_set = [ item 0; item 1 ]; coordinator = 9 }
  in
  List.iter (fun i -> handle ~src:9 (Messages.Propose { woption = opt i; route = `Fast })) [ 0; 1 ];
  clock := 1e9;
  Storage_node.start_maintenance node;
  (List.hd !timers) ();
  Alcotest.(check int) "one recovery" 1 (Storage_node.recovering node);
  ignore (drain ());
  handle ~src:1
    (Messages.Status_reply
       { txid = "a"; key = item 1; status = Messages.Status_decided true; acceptor = 1 });
  let sent =
    List.filter_map
      (fun (dst, p) ->
        match p with
        | Messages.Visibility { woption = w; committed } when dst = 1 ->
          let proposed = w.Woption.update = Update.Delta [ ("stock", -1) ] in
          Some (Key.to_string w.Woption.key, proposed, committed)
        | _ -> None)
      (Helpers.unbatch (drain ()))
  in
  Alcotest.(check (list (triple string bool bool)))
    "both options, committed" [ ("item/0", true, true); ("item/1", true, true) ] sent;
  Alcotest.(check (list string)) "no refusal of its own option" []
    (List.filter (fun l -> contains ~needle:"unknown update" l) !lines);
  Alcotest.(check int) "both executed here" 0 (Storage_node.pending_options node);
  Alcotest.(check int) "item 0 written" 9
    (Value.get_int (Store.ensure (Storage_node.store node) (item 0)).Store.value "stock");
  Alcotest.(check int) "the table is empty" 0 (Storage_node.recovering node)

(* ROADMAP item 3, cause 2, on the master's Phase 1 step alone.  Three
   committed deltas of -1 on a stock of 10: "d" executed only at replica
   0 (version 2, stock 9), "e" and "f" only at replica 1 (version 3,
   stock 8); the master, replica 2, executed none.  [Acceptor.resolve]
   re-bases on the highest version, replica 1's, whose applied set lacks
   "d", so its base reads 8 where the committed stock is 7, and under
   plain escrow it admits a free -8 escalated to it: the stock would end
   at -1.  The fix rejects it. *)
let test_known_defect_rebase_drops_delta () =
  let module Acceptor = Mdcc_core.Acceptor in
  let module Messages = Mdcc_core.Messages in
  let module Woption = Mdcc_core.Woption in
  let key = item 0 in
  let node () =
    let store = Store.create stock_schema in
    let row = Store.ensure store key in
    row.Store.value <- item_row 10;
    row.Store.version <- 1;
    row.Store.exists <- true;
    Acceptor.create_node ~config:(Config.make ~replication:5 ()) store
  in
  let nodes = Array.init 3 (fun _ -> node ()) in
  let delta txid d =
    { Woption.txid; key; update = Update.Delta [ ("stock", d) ]; write_set = [ key ];
      coordinator = 9 }
  in
  let execute i (w : Woption.t) =
    ignore (Acceptor.visibility nodes.(i) w.Woption.txid key w.Woption.update true
      : Acceptor.visibility)
  in
  execute 0 (delta "d" (-1));
  List.iter (fun txid -> execute 1 (delta txid (-1))) [ "e"; "f" ];
  let ballot = Mdcc_paxos.Ballot.classic ~number:2 ~proposer:2 in
  let rs i = Acceptor.record nodes.(i) key in
  let promises =
    List.map
      (fun i ->
        ignore (Acceptor.phase1a nodes.(i) (rs i) ballot : bool);
        (i, Acceptor.promise nodes.(i) (rs i)))
      [ 0; 1; 2 ]
  in
  let r =
    Acceptor.resolve nodes.(2) (rs 2) ~promises ~extras:[ delta "g" (-8) ]
      ~replicas:[ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check (pair int bool)) "the base is replica 1's, without d" (3, false)
    (r.Acceptor.rebase.Messages.version, Txn.Map.mem "d" r.Acceptor.rebase.Messages.included);
  Alcotest.(check bool) "known defect, item 3: a free delta is admitted past the committed stock"
    true
    (r.Acceptor.outcomes = [ (delta "g" (-8), Woption.Accepted) ])

(* A known defect of ROADMAP item 2 (CHANGES.md's FOUND line on
   [start_txn_recovery]).  Node 0 holds a fast vote from a silent
   coordinator 9 and starts recovering it on the first scan; no status
   reply ever comes.  The recovery keeps its entry, and since a node
   starts no recovery of a transaction it already holds, every later
   scan sends nothing, until the forget timer, armed at 3 x
   [txn_timeout], drops the entry and the next scan starts over. *)
let test_unanswered_recovery_blocks_rescans () =
  let module Messages = Mdcc_core.Messages in
  let s = scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of:(fun _ -> 1) () in
  Storage_node.load s.node [ (item 0, item_row 10) ];
  let w =
    { Mdcc_core.Woption.txid = "a"; key = item 0; update = Update.Delta [ ("stock", -1) ];
      write_set = [ item 0 ]; coordinator = 9 }
  in
  s.handle ~src:9 (Messages.Propose { woption = w; route = `Fast });
  s.clock := 1e9;
  Storage_node.start_maintenance s.node;
  (* The scan tick re-arms itself after it runs, so it is always the
     newest timer. *)
  let queries () =
    List.length
      (List.filter (function _, Messages.Status_query _ -> true | _ -> false) (s.drain ()))
  in
  let tick () =
    (List.hd !(s.timers)) ();
    queries ()
  in
  Alcotest.(check int) "the first scan queries the four other replicas" 4 (tick ());
  Alcotest.(check int) "one recovery" 1 (Storage_node.recovering s.node);
  let forget_after = 3.0 *. (Config.make ~replication:5 ()).Config.txn_timeout in
  let forget =
    match List.filter (fun (d, _) -> d = forget_after) (List.combine !(s.delays) !(s.timers)) with
    | [ (_, f) ] -> f
    | _ -> Alcotest.fail "no single timer at 3 x txn_timeout"
  in
  Alcotest.(check (list int)) "known defect, item 2: every later scan skips it" [ 0; 0; 0; 0; 0 ]
    (List.init 5 (fun _ -> tick ()));
  Alcotest.(check int) "still held" 1 (Storage_node.recovering s.node);
  forget ();
  Alcotest.(check int) "forgotten" 0 (Storage_node.recovering s.node);
  Alcotest.(check int) "the next scan starts over" 4 (tick ())

(* A stable master (Multi mode) of item 0 at its implicit classic ballot,
   replicas 0-4: node 0 is scripted, every other replica is played by the
   test.  [propose] sends a classic proposal from coordinator 9 of
   [update] on item 0. *)
let stable_master () =
  let s =
    scripted_node ~mode:Config.Multi ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ])
      ~master_of:(fun _ -> 0) ()
  in
  Storage_node.load s.node [ (item 0, item_row 10) ];
  let propose txid update =
    let w =
      { Mdcc_core.Woption.txid; key = item 0; update; write_set = [ item 0 ]; coordinator = 9 }
    in
    s.handle ~src:9 (Mdcc_core.Messages.Propose { woption = w; route = `Classic });
    w
  in
  (s, propose)

let round_ballot = Mdcc_paxos.Ballot.classic ~number:1 ~proposer:0

let ack ?(ballot = round_ballot) ?(ok = true) (s : scripted) src txid =
  s.handle ~src
    (Mdcc_core.Messages.Phase2b_master { key = item 0; txid; ballot; ok })

let decision_str = function Mdcc_core.Woption.Accepted -> "acc" | Rejected -> "rej"

(* (destination, txid, decision) of every Phase2a, or every Learned, in
   [sent]. *)
let phase2as sent =
  List.filter_map
    (fun (dst, p) ->
      match p with
      | Mdcc_core.Messages.Phase2a { woption; decision; _ } ->
        Some (dst, woption.Mdcc_core.Woption.txid, decision_str decision)
      | _ -> None)
    sent

let learned sent =
  List.filter_map
    (fun (dst, p) ->
      match p with
      | Mdcc_core.Messages.Learned { txid; decision; _ } ->
        Some (dst, txid, decision_str decision)
      | _ -> None)
    sent

let sends = Alcotest.(list (triple int string string))

let test_requeued_option_one_round () =
  (* Stock 10, bounded below by 0.  T1, a physical update at a stale
     version, holds the record; T2's delta of -6 queues behind it, and a
     Start_recovery from node 8 re-proposes T2 while it waits.  When T1 is
     learned rejected, T2 must run one round and be learned once, by its
     coordinator and by node 8.  Queued twice, it ran two rounds at one
     ballot: the second counted the first's -6 and was rejected, so every
     acceptor saw T2 accepted and then rejected. *)
  let s, propose = stable_master () in
  let _t1 = propose "T1" (Update.Physical { vread = 0; value = item_row 3 }) in
  let t2 = propose "T2" (Update.Delta [ ("stock", -6) ]) in
  s.handle ~src:8 (Mdcc_core.Messages.Start_recovery { key = item 0; woption = t2 });
  Alcotest.check sends "T1 runs alone"
    (List.map (fun dst -> (dst, "T1", "rej")) [ 1; 2; 3; 4 ])
    (phase2as (s.drain ()));
  ack s 1 "T1";
  ack s 2 "T1";
  let sent = s.drain () in
  Alcotest.check sends "T1 learned" [ (9, "T1", "rej") ] (learned sent);
  (* Replicas 1 and 2 answered T1, so T2 goes to them at once; 3 and 4,
     never measured, hear it when the epoch ends. *)
  let at_once = phase2as sent in
  List.iter (fun fire -> fire ()) !(s.timers);
  s.timers := [];
  let t2_round = at_once @ phase2as (s.drain ()) in
  Alcotest.check sends "T2 runs one round"
    (List.map (fun dst -> (dst, "T2", "acc")) [ 1; 2; 3; 4 ])
    t2_round;
  List.iter (fun (dst, txid, _) -> if dst <= 2 then ack s dst txid) t2_round;
  Alcotest.check sends "T2 learned once, by node 8 and its coordinator"
    [ (8, "T2", "acc"); (9, "T2", "acc") ]
    (learned (s.drain ()))

let test_classic_round_acks () =
  (* A classic quorum is 3: the master's own ack and two more. *)
  let s, propose = stable_master () in
  let _ = propose "a" (Update.Delta [ ("stock", -1) ]) in
  ignore (s.drain ());
  ack s 1 "a";
  ack s 1 "a";
  Alcotest.check sends "a repeated ack counts once" [] (learned (s.drain ()));
  ack s ~ballot:Mdcc_paxos.Ballot.initial_fast 2 "a";
  ack s ~ballot:(Mdcc_paxos.Ballot.classic ~number:1 ~proposer:3) 2 "a";
  Alcotest.check sends "an ack at another ballot is ignored" [] (learned (s.drain ()));
  ack s 2 "a";
  Alcotest.check sends "a third distinct ack decides" [ (9, "a", "acc") ] (learned (s.drain ()));
  let _ = propose "b" (Update.Delta [ ("stock", -1) ]) in
  ignore (s.drain ());
  ack s ~ok:false 3 "b";
  let phase1a =
    List.filter_map
      (fun (dst, p) ->
        match p with
        | Mdcc_core.Messages.Phase1a { ballot; _ } ->
          Some (dst, Format.asprintf "%a" Mdcc_paxos.Ballot.pp ballot)
        | _ -> None)
      (s.drain ())
  in
  Alcotest.(check (list (pair int string)))
    "a nack at the round's ballot steps down into recovery, one ballot higher"
    (List.map (fun dst -> (dst, "2.c.0")) [ 1; 2; 3; 4 ])
    phase1a

let test_phase1b_repeat_counts_once () =
  (* A classic quorum is 3: the recovering master's own promise and two
     more.  A Phase 1b that one acceptor repeats counts once. *)
  let module Messages = Mdcc_core.Messages in
  let module Woption = Mdcc_core.Woption in
  let module Ballot = Mdcc_paxos.Ballot in
  let key = item 0 in
  let { node; handle; drain; _ } =
    scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of:(fun _ -> 0) ()
  in
  Storage_node.load node [ (key, item_row 100) ];
  let d =
    { Woption.txid = "d"; key; update = Update.Delta [ ("stock", -1) ]; write_set = [ key ];
      coordinator = 9 }
  in
  handle ~src:9 (Messages.Start_recovery { key; woption = d });
  ignore (drain ());
  let ballot = Ballot.classic ~number:2 ~proposer:0 in
  let phase1b src =
    handle ~src
      (Messages.Phase1b
         {
           key;
           ballot;
           ok = true;
           promised = ballot;
           promise =
             {
               votes = [];
               rebase =
                 {
                   value = item_row 100;
                   version = 1;
                   exists = true;
                   included = Mdcc_storage.Txn.Map.empty;
                 };
               decided = [];
             };
         })
  in
  let phase2as () =
    List.filter_map
      (fun (dst, p) ->
        match p with
        | Messages.Phase2a { woption; ballot = b; _ } when Ballot.equal b ballot ->
          Some (dst, woption.Woption.txid)
        | _ -> None)
      (drain ())
  in
  phase1b 1;
  phase1b 1;
  Alcotest.(check (list (pair int string))) "a repeated promise counts once" [] (phase2as ());
  phase1b 2;
  Alcotest.(check (list (pair int string)))
    "a third distinct promise resolves the recovery"
    [ (1, "d"); (2, "d"); (3, "d"); (4, "d") ]
    (phase2as ())

(* A Phase 1 promise reports this replica's votes, so until the master's
   round proposes (a Phase2a at or above the promise) the replica casts no
   fast vote: it redirects.  Afterwards, outside the classic window, it
   votes fast again. *)
let test_promise_blocks_fast_votes () =
  let module Messages = Mdcc_core.Messages in
  let module Woption = Mdcc_core.Woption in
  let key = item 0 in
  let { node; handle; drain; _ } =
    scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of:(fun _ -> 1) ()
  in
  Storage_node.load node [ (key, item_row 100) ];
  let opt txid =
    { Woption.txid; key; update = Update.Delta [ ("stock", -1) ]; write_set = [ key ];
      coordinator = 9 }
  in
  let ballot = Mdcc_paxos.Ballot.classic ~number:2 ~proposer:1 in
  let replies () =
    List.map
      (fun (dst, p) ->
        match p with
        | Messages.Phase1b { ok; _ } -> (dst, if ok then "promise" else "nack")
        | Messages.Redirect _ -> (dst, "redirect")
        | Messages.Phase2b_fast _ -> (dst, "fast vote")
        | Messages.Phase2b_master { ok; _ } -> (dst, if ok then "classic vote" else "refused")
        | _ -> (dst, "other"))
      (drain ())
  in
  let fast txid = handle ~src:9 (Messages.Propose { woption = opt txid; route = `Fast }) in
  handle ~src:1 (Messages.Phase1a { key; ballot });
  fast "a";
  Alcotest.(check (list (pair int string)))
    "promised: a fast proposal is redirected" [ (1, "promise"); (9, "redirect") ] (replies ());
  handle ~src:1
    (Messages.Phase2a
       { key; ballot; woption = opt "b"; decision = Woption.Accepted; classic_until = 0;
         rebase = None });
  fast "c";
  Alcotest.(check (list (pair int string)))
    "proposed at the promise: fast votes resume" [ (1, "classic vote"); (9, "fast vote") ]
    (replies ())

(* A replica that voided an option answers a later proposal of it with the
   transaction's outcome, not with a vote. *)
let test_decided_option_reports_outcome () =
  let module Messages = Mdcc_core.Messages in
  let key = item 0 in
  let { node; handle; drain; _ } =
    scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of:(fun _ -> 1) ()
  in
  Storage_node.load node [ (key, item_row 100) ];
  let delta = Update.Delta [ ("stock", -1) ] in
  handle ~src:9 (Helpers.visibility ~txid:"gone" ~key delta false);
  ignore (drain ());
  handle ~src:9
    (Messages.Propose { woption = Helpers.option_of ~update:delta ~txid:"gone" key; route = `Fast });
  match drain () with
  | [ (9, Messages.Visibility { woption; committed = false }) ] ->
    Alcotest.(check string) "the option's transaction" "gone" woption.Mdcc_core.Woption.txid
  | _ -> Alcotest.fail "expected one aborted Visibility to the coordinator"

let test_sync_targets () =
  (* Node 0 masters item 0 (replicas 0, 1, 2) but not item 1 (replicas 3,
     0, 2; master 1). *)
  let module Messages = Mdcc_core.Messages in
  let replicas k = if Key.equal k (item 0) then [ 0; 1; 2 ] else [ 3; 0; 2 ] in
  let master_of k = if Key.equal k (item 0) then 0 else 1 in
  let { node; drain; _ } = scripted_node ~replicas ~master_of () in
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

(* The visibility outcomes node 0 reports for item 0: what a Status_query
   answers for each txid of [txids], and what a Phase 1b promise carries,
   as its applied set ([rebase.included], every txid committed) and its
   decided log. *)
let reported_outcomes { handle; drain; _ } ~ballot txids =
  let module Messages = Mdcc_core.Messages in
  let key = item 0 in
  ignore (drain ());
  List.iter (fun txid -> handle ~src:1 (Messages.Status_query { txid; key })) txids;
  handle ~src:1 (Messages.Phase1a { key; ballot = Mdcc_paxos.Ballot.classic ~number:ballot ~proposer:1 });
  let status = ref [] and promise = ref None in
  List.iter
    (fun (_, p) ->
      match p with
      | Messages.Status_reply { txid; status = Messages.Status_decided c; _ } ->
        status := (txid, c) :: !status
      | Messages.Phase1b { promise = pr; _ } -> promise := Some pr
      | _ -> ())
    (drain ());
  match !promise with
  | None -> Alcotest.fail "no Phase1b"
  | Some pr ->
    let included = List.map fst (Txn.Map.bindings pr.Messages.rebase.Messages.included) in
    (List.sort compare !status, included, pr.Messages.decided)

(* The model's outcome map, sorted by txid. *)
let sorted_outcomes model = List.sort compare (Hashtbl.fold (fun t c acc -> (t, c) :: acc) model [])

(* Whether a promise's two parts are disjoint and, read as a recovering
   master reads them (the applied set committed, then the decided log, each
   txid once), report exactly [expected]. *)
let promise_reports expected (included, decided) =
  let decided_txids = List.map fst decided in
  let disjoint = not (List.exists (fun t -> List.mem t included) decided_txids) in
  let once = List.length (List.sort_uniq compare decided_txids) = List.length decided_txids in
  let read = Hashtbl.create 16 in
  List.iter (fun t -> Hashtbl.replace read t true) included;
  List.iter (fun (t, c) -> Hashtbl.replace read t c) decided;
  disjoint && once && sorted_outcomes read = expected

type log_event =
  | Prop of int * bool  (* txid, classic (a Phase2a) rather than fast *)
  | Viz of int * int * bool  (* txid, update kind (delta/physical/guard), committed *)
  | Rebase of int list * int  (* included txids, stock *)
  | Repair of int list  (* txids of the deltas a Sync_reply offers *)

let prop_outcome_log_matches_model =
  let module Messages = Mdcc_core.Messages in
  let txid i = Printf.sprintf "t%d" i in
  let delta = Update.Delta [ ("stock", -1) ] in
  let event =
    QCheck.Gen.(
      frequency
        [
          (4, map2 (fun t c -> Prop (t, c)) (int_range 0 9) bool);
          (6, map3 (fun t k c -> Viz (t, k, c)) (int_range 0 9) (int_range 0 2) bool);
          (2, map2 (fun ts s -> Rebase (ts, s)) (list_size (int_range 0 6) (int_range 0 9))
                (int_range 0 50));
          (2, map (fun ts -> Repair ts) (list_size (int_range 0 4) (int_range 0 9)));
        ])
  in
  let print = function
    | Prop (t, c) -> Printf.sprintf "propose t%d %s" t (if c then "classic" else "fast")
    | Viz (t, k, c) -> Printf.sprintf "viz t%d kind=%d %b" t k c
    | Rebase (ts, s) ->
      Printf.sprintf "rebase [%s] stock=%d" (String.concat ";" (List.map txid ts)) s
    | Repair ts -> Printf.sprintf "repair [%s]" (String.concat ";" (List.map txid ts))
  in
  QCheck.Test.make ~name:"outcome log matches its model" ~count:200
    QCheck.(make ~print:Print.(list print) Gen.(list_size (int_range 0 30) event))
    (fun events ->
      let key = item 0 in
      let node = scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of:(fun _ -> 1) () in
      Storage_node.load node.node [ (key, item_row 100) ];
      (* txid -> committed?  A rebase or repair only ever names a txid the
         model does not hold voided: it commits the unknown ones.  An
         option is pending from its proposal until its txid has an
         outcome; one proposed after that never becomes pending. *)
      let model = Hashtbl.create 16 and pending = Hashtbl.create 16 in
      let not_voided t = Hashtbl.find_opt model (txid t) <> Some false in
      let settle t = Hashtbl.remove pending (txid t) in
      let commit t =
        settle t;
        if not (Hashtbl.mem model (txid t)) then Hashtbl.replace model (txid t) true
      in
      List.iteri
        (fun i ev ->
          match ev with
          | Prop (t, classic) ->
            let woption =
              { Mdcc_core.Woption.txid = txid t; key; update = delta; write_set = [ key ];
                coordinator = 9 }
            in
            if classic then
              node.handle ~src:1
                (Messages.Phase2a
                   {
                     key;
                     ballot = Mdcc_paxos.Ballot.classic ~number:1 ~proposer:1;
                     woption;
                     decision = Mdcc_core.Woption.Accepted;
                     classic_until = 0;
                     rebase = None;
                   })
            else node.handle ~src:9 (Messages.Propose { woption; route = `Fast });
            if not (Hashtbl.mem model (txid t)) then Hashtbl.replace pending (txid t) ()
          | Viz (t, kind, committed) ->
            let update =
              match kind with
              | 0 -> delta
              | 1 -> Update.Physical { vread = 1; value = item_row 7 }
              | _ -> Update.Read_guard { vread = 1 }
            in
            node.handle ~src:9 (Helpers.visibility ~txid:(txid t) ~key update committed);
            settle t;
            if not (Hashtbl.mem model (txid t)) then Hashtbl.replace model (txid t) committed
          | Rebase (ts, stock) ->
            let ts = List.filter not_voided ts in
            let included = Txn.Map.of_list (List.map (fun t -> (txid t, delta)) ts) in
            node.handle ~src:1
              (Messages.Catchup
                 {
                   key;
                   rebase =
                     { value = item_row stock; version = 1000 * (i + 1); exists = true; included };
                 });
            List.iter commit ts
          | Repair ts ->
            let ts = List.filter not_voided ts in
            let applied = Txn.Map.of_list (List.map (fun t -> (txid t, delta)) ts) in
            node.handle ~src:1 (Messages.Sync_reply { key; version = 0; applied });
            List.iter commit ts)
        events;
      let expected = sorted_outcomes model in
      let status, included, decided =
        reported_outcomes node ~ballot:2 (List.init 10 txid)
      in
      (* A maintenance tick past three timeouts starts a recovery for every
         option still pending, each with its Status_query fan-out. *)
      node.clock := (3.0 *. (Config.make ~replication:5 ()).Config.txn_timeout) +. 1.0;
      Storage_node.start_maintenance node.node;
      (List.hd !(node.timers)) ();
      let queried =
        List.sort_uniq compare
          (List.filter_map
             (function _, Messages.Status_query { txid; _ } -> Some txid | _ -> None)
             (Helpers.unbatch (node.drain ())))
      in
      let still_pending = List.sort compare (Hashtbl.fold (fun t () acc -> t :: acc) pending []) in
      status = expected
      && promise_reports expected (included, decided)
      && queried = still_pending
      && List.length queried = Storage_node.pending_options node.node)

let test_clobbered_then_repaired () =
  (* A committed delta a rebase clobbers stays decided committed, now in the
     promise's decided log; a Sync_reply that replays it moves it back to
     the applied set. *)
  let module Messages = Mdcc_core.Messages in
  let key = item 0 in
  let node = scripted_node ~replicas:(fun _ -> [ 0; 1; 2; 3; 4 ]) ~master_of:(fun _ -> 1) () in
  Storage_node.load node.node [ (key, item_row 100) ];
  let delta = Update.Delta [ ("stock", -1) ] in
  node.handle ~src:9 (Helpers.visibility ~txid:"d" ~key delta true);
  node.handle ~src:9 (Helpers.visibility ~txid:"v" ~key delta false);
  let report = Alcotest.(triple (list (pair string bool)) (list string) (list (pair string bool))) in
  let outcomes = [ ("d", true); ("v", false) ] in
  Alcotest.check report "applied" (outcomes, [ "d" ], [ ("v", false) ])
    (reported_outcomes node ~ballot:2 [ "d"; "v" ]);
  let rebase =
    { Messages.value = item_row 50; version = 5; exists = true; included = Txn.Map.empty }
  in
  node.handle ~src:1 (Messages.Catchup { key; rebase });
  Alcotest.check report "clobbered: demoted to the log" (outcomes, [], [ ("d", true); ("v", false) ])
    (reported_outcomes node ~ballot:3 [ "d"; "v" ]);
  node.handle ~src:1
    (Messages.Sync_reply { key; version = 5; applied = Txn.Map.singleton "d" delta });
  Alcotest.check report "repaired: promoted to the applied set"
    (outcomes, [ "d" ], [ ("v", false) ])
    (reported_outcomes node ~ballot:4 [ "d"; "v" ]);
  Alcotest.(check int) "the delta is replayed once" 49
    (Value.get_int (Store.ensure (Storage_node.store node.node) key).Store.value "stock")

(* The dangling scan against a reference model.  One node holds options
   on six records, proposed at ages that straddle the transaction timeout
   and three times it, exact boundaries included; even records are
   mastered by node 0, odd ones by node 1.  Some options are settled
   before the scan — right after their proposal or a few proposals later,
   by a committed or voided Visibility — so records empty and refill.  The
   model: an option still pending is stale when its age exceeds one
   timeout at the record's master and three elsewhere; recoveries start in
   reverse (key, arrival) order.  Each write-set is the option's own key,
   so a recovery's one Status_query to the other replica names it. *)
let prop_dangling_scan_matches_model =
  let module Messages = Mdcc_core.Messages in
  let module Woption = Mdcc_core.Woption in
  let timeout = 5000 and scan_at = 100_000 in
  let age =
    QCheck.Gen.(
      oneof
        [
          oneofl [ 0; timeout - 1; timeout; timeout + 1; (3 * timeout) - 1; 3 * timeout;
                   (3 * timeout) + 1 ];
          int_range 0 (4 * timeout);
        ])
  in
  QCheck.Test.make ~name:"dangling scan matches its model" ~count:300
    QCheck.(
      pair (make Gen.(int_range 0 1))
        (make
           ~print:Print.(list (triple int int (option (pair int bool))))
           Gen.(
             list_size (int_range 0 30)
               (triple (int_range 0 5) age
                  (frequency
                     [ (3, pure None); (1, map Option.some (pair (int_range 0 3) bool)) ])))))
    (fun (node_id, opts) ->
      let master_of (k : Key.t) = int_of_string k.Key.id mod 2 in
      let { Helpers.runtime; deliver; drain; clock; timers; _ } = Helpers.scripted_runtime () in
      let node =
        Storage_node.create ~runtime
          ~config:(Config.make ~replication:3 ~txn_timeout:(Float.of_int timeout) ())
          ~node_id
          ~schema:(Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ])
          ~replicas:(fun _ -> [ 0; 1 ])
          ~master_of ()
      in
      let update = Update.Delta [ ("stock", 1) ] in
      let settled = Hashtbl.create 8 in
      let opts =
        List.mapi (fun i (r, age, settle) -> (Printf.sprintf "x%02d" i, item r, age, settle)) opts
      in
      let arr = Array.of_list opts in
      List.iteri
        (fun i (txid, key, age, settle) ->
          clock := Float.of_int (scan_at - age);
          deliver ~src:9
            (Messages.Propose
               {
                 woption = { Woption.txid; key; update; write_set = [ key ]; coordinator = 9 };
                 route = `Fast;
               });
          (* Settle the option proposed [back] steps ago. *)
          match settle with
          | Some (back, committed) when back <= i ->
            let txid, key, _, _ = arr.(i - back) in
            deliver ~src:9 (Helpers.visibility ~txid ~key update committed);
            Hashtbl.replace settled txid ()
          | Some _ | None -> ())
        opts;
      clock := Float.of_int scan_at;
      Storage_node.start_maintenance node;
      ignore (drain ());
      (List.hd !timers) ();
      let started =
        List.filter_map
          (fun (dst, p) ->
            match p with
            | Messages.Status_query { txid; _ } when dst <> node_id -> Some txid
            | _ -> None)
          (Helpers.unbatch (drain ()))
      in
      let expected =
        List.init 6 item
        |> List.concat_map (fun key ->
               let limit = if master_of key = node_id then timeout else 3 * timeout in
               List.filter_map
                 (fun (txid, k, age, _) ->
                   if Key.equal k key && age > limit && not (Hashtbl.mem settled txid) then
                     Some txid
                   else None)
                 opts)
        |> List.rev
      in
      started = expected)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_dangling_scan_matches_model;
    QCheck_alcotest.to_alcotest prop_outcome_log_matches_model;
    Alcotest.test_case "clobbered outcome demoted, then promoted" `Quick
      test_clobbered_then_repaired;
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
    Alcotest.test_case "dangling recovery fold" `Quick test_dangling_recovery_fold;
    Alcotest.test_case "an early finish issues its own option" `Quick
      test_early_finish_own_option;
    Alcotest.test_case "known defect, item 2: an unanswered recovery blocks rescans" `Quick
      test_unanswered_recovery_blocks_rescans;
    Alcotest.test_case "known defect, item 3: a re-base drops a committed delta" `Quick
      test_known_defect_rebase_drops_delta;
    Alcotest.test_case "re-proposed queued option runs one round" `Quick
      test_requeued_option_one_round;
    Alcotest.test_case "classic round acks" `Quick test_classic_round_acks;
    Alcotest.test_case "a repeated Phase 1b counts once" `Quick test_phase1b_repeat_counts_once;
    Alcotest.test_case "a promise blocks fast votes until proposed" `Quick
      test_promise_blocks_fast_votes;
    Alcotest.test_case "a decided option reports its outcome" `Quick
      test_decided_option_reports_outcome;
    Alcotest.test_case "sync sweep targets" `Quick test_sync_targets;
  ]
