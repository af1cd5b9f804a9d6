(* Tests of the comparison protocols: quorum writes, 2PC, Megastore*. *)

open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Cluster = Mdcc_core.Cluster
module Layout = Cluster.Layout
module Runtime = Mdcc_core.Runtime
module Tpc = Mdcc_protocols.Two_phase_commit
module Ms = Mdcc_protocols.Megastore
module Harness = Mdcc_protocols.Harness
module Loop = Mdcc_runtime_unix.Loop
module Setup = Mdcc_workload.Setup
module Baseline = Mdcc_chaos.Baseline

let item i = Key.make ~table:"item" ~id:(string_of_int i)

let schema =
  Schema.create
    [
      {
        Schema.name = "item";
        bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = None } ];
        master_dc = 0;
      };
    ]

let rows n stock =
  List.init n (fun i -> (item i, Value.of_list [ ("stock", Value.Int stock) ]))

let submit_sync (h : Harness.t) ~dc txn =
  let result = ref None in
  h.Harness.submit ~dc txn (fun o -> result := Some o);
  Engine.run ~until:(Engine.now h.Harness.engine +. 60_000.0) h.Harness.engine;
  match !result with Some o -> o | None -> Alcotest.fail "undecided"

let is_committed = function Txn.Committed -> true | Txn.Aborted _ -> false

(* [Setup.make]'s deployment of a baseline on the paper's five DCs, keeping
   the protocol's own handle for the tests that inspect it. *)
let deploy ~seed ~rows create =
  let engine = Engine.create ~seed in
  let layout, net = Cluster.scaffold ~engine ~spec:Cluster.Spec.default in
  let d = Harness.deploy ~runtime:(Runtime.of_network net) ~layout ~schema in
  let proto, submit = create d in
  let h =
    Harness.of_deployment d ~name:"baseline" ~engine ~fail_dc:(Net.fail_dc net)
      ~recover_dc:(Net.recover_dc net) submit
  in
  h.Harness.load rows;
  (proto, h)

(* Every baseline reads the replica in the client's data center from its
   store, as MDCC does: no message, the callback deferred, and the row as
   it stands there, a stale one included. *)
let test_local_read_sends_nothing () =
  let qw d = Mdcc_protocols.Quorum_writes.(submit (create d ~w:3))
  and tpc d = Tpc.(submit (create d))
  and ms d = Ms.(submit (create d)) in
  List.iter
    (fun (name, create) ->
      let engine = Engine.create ~seed:5 in
      let layout, net = Cluster.scaffold ~engine ~spec:Cluster.Spec.default in
      let d = Harness.deploy ~runtime:(Runtime.of_network net) ~layout ~schema in
      let h =
        Harness.of_deployment d ~name ~engine ~fail_dc:(Net.fail_dc net)
          ~recover_dc:(Net.recover_dc net) (create d)
      in
      h.Harness.load (rows 2 100);
      let row = Store.ensure (Harness.store d (Layout.local_node layout ~dc:3 (item 1))) (item 1) in
      row.Store.value <- Value.of_list [ ("stock", Value.Int 42) ];
      row.Store.version <- 7;
      let sent0 = (Net.stats net).Net.sent and answers = ref [] in
      List.iter
        (fun i ->
          h.Harness.read_local ~dc:3 (item i) (fun r ->
              answers := Option.map (fun (v, ver) -> (Value.get_int v "stock", ver)) r :: !answers))
        [ 0; 1; 5 ];
      Alcotest.(check int) (name ^ ": deferred") 0 (List.length !answers);
      Engine.run ~until:1_000.0 engine;
      Alcotest.(check (list (option (pair int int))))
        (name ^ ": DC 3's rows") [ Some (100, 1); Some (42, 7); None ] (List.rev !answers);
      Alcotest.(check int) (name ^ ": no message") sent0 (Net.stats net).Net.sent)
    [ ("QW-3", qw); ("2PC", tpc); ("Megastore*", ms) ]

(* --- quorum writes ----------------------------------------------------- *)

let make_qw ?(w = 3) () = Setup.make (Setup.Qw w) ~seed:5 ~schema ~rows:(rows 5 100) ()

let test_qw_commits_and_applies () =
  let h = make_qw () in
  let o =
    submit_sync h ~dc:0
      (Txn.make ~id:"q1" ~updates:[ (item 0, Update.Delta [ ("stock", -10) ]) ])
  in
  Alcotest.(check bool) "committed" true (is_committed o);
  (* QW sends to all 5; after quiescence every replica applied it. *)
  for dc = 0 to 4 do
    match h.Harness.peek ~dc (item 0) with
    | Some (v, _) -> Alcotest.(check int) "applied" 90 (Value.get_int v "stock")
    | None -> Alcotest.fail "row"
  done

let test_qw_no_isolation_lost_update () =
  (* QW provides no isolation: two concurrent read-modify-writes both
     "commit" and one overwrites the other (the lost-update anomaly MDCC
     prevents). *)
  let h = make_qw () in
  let e = h.Harness.engine in
  let r1 = ref None and r2 = ref None in
  h.Harness.submit ~dc:0
    (Txn.make ~id:"a"
       ~updates:[ (item 0, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 42) ] }) ])
    (fun o -> r1 := Some o);
  h.Harness.submit ~dc:1
    (Txn.make ~id:"b"
       ~updates:[ (item 0, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 77) ] }) ])
    (fun o -> r2 := Some o);
  Engine.run e;
  Alcotest.(check bool) "both committed (no conflict detection)" true
    ((match !r1 with Some o -> is_committed o | None -> false)
    && match !r2 with Some o -> is_committed o | None -> false)

let test_qw_no_constraints () =
  (* QW applies blindly: stock goes negative. *)
  let h = make_qw () in
  let o =
    submit_sync h ~dc:0
      (Txn.make ~id:"q2" ~updates:[ (item 0, Update.Delta [ ("stock", -500) ]) ])
  in
  Alcotest.(check bool) "committed anyway" true (is_committed o);
  match h.Harness.peek ~dc:0 (item 0) with
  | Some (v, _) -> Alcotest.(check int) "negative stock" (-400) (Value.get_int v "stock")
  | None -> Alcotest.fail "row"

let test_qw4_slower_than_qw3 () =
  (* QW-4 must wait for the 4th-closest data center. *)
  let time_one w =
    let h = make_qw ~w () in
    let e = h.Harness.engine in
    let t0 = Engine.now e in
    let done_at = ref 0.0 in
    h.Harness.submit ~dc:0
      (Txn.make ~id:"t" ~updates:[ (item 0, Update.Delta [ ("stock", -1) ]) ])
      (fun _ -> done_at := Engine.now e);
    Engine.run e;
    !done_at -. t0
  in
  Alcotest.(check bool) "latency(QW-4) > latency(QW-3)" true (time_one 4 > time_one 3)

(* --- 2PC ---------------------------------------------------------------- *)

let make_2pc () =
  deploy ~seed:6 ~rows:(rows 5 100) (fun d ->
      let tpc = Tpc.create d in
      (tpc, Tpc.submit tpc))

let test_2pc_commit () =
  let tpc, h = make_2pc () in
  let o =
    submit_sync h ~dc:0
      (Txn.make ~id:"t1"
         ~updates:
           [
             (item 0, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 9) ] });
             (item 1, Update.Delta [ ("stock", -1) ]);
           ])
  in
  Alcotest.(check bool) "committed" true (is_committed o);
  Alcotest.(check int) "locks released" 0 (Tpc.locks_held tpc);
  for dc = 0 to 4 do
    match h.Harness.peek ~dc (item 0) with
    | Some (v, _) -> Alcotest.(check int) "applied everywhere" 9 (Value.get_int v "stock")
    | None -> Alcotest.fail "row"
  done

let test_2pc_conflict_aborts () =
  let tpc, h = make_2pc () in
  let o1 =
    submit_sync h ~dc:0
      (Txn.make ~id:"t1"
         ~updates:[ (item 0, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 9) ] }) ])
  in
  Alcotest.(check bool) "first commits" true (is_committed o1);
  let o2 =
    submit_sync h ~dc:1
      (Txn.make ~id:"t2"
         ~updates:[ (item 0, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 8) ] }) ])
  in
  Alcotest.(check bool) "stale vread aborts" false (is_committed o2);
  Alcotest.(check int) "locks released after abort" 0 (Tpc.locks_held tpc)

let test_2pc_constraint_aborts () =
  let _, h = make_2pc () in
  let o =
    submit_sync h ~dc:0
      (Txn.make ~id:"t1" ~updates:[ (item 0, Update.Delta [ ("stock", -500) ]) ])
  in
  Alcotest.(check bool) "constraint enforced" false (is_committed o)

let suite_2pc_blocking () =
  (* The classic 2PC flaw: the coordinator dies between prepare and
     decision; prepared replicas stay locked forever (the blocking MDCC's
     options avoid).  We fail the coordinator's whole DC after the prepares
     went out. *)
  let tpc, h = make_2pc () in
  let e = h.Harness.engine in
  let decided = ref false in
  h.Harness.submit ~dc:0
    (Txn.make ~id:"t1"
       ~updates:[ (item 0, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 9) ] }) ])
    (fun _ -> decided := true);
  ignore (Engine.schedule e ~after:120.0 (fun () -> h.Harness.fail_dc 0));
  Engine.run ~until:60_000.0 e;
  Alcotest.(check bool) "never decided" false !decided;
  Alcotest.(check bool) "locks still held (2PC blocks)" true (Tpc.locks_held tpc > 0)

(* The same 2PC code on the socket runtime: its messages go through the
   loop's engine with no delay instead of the simulated WAN.  No socket
   is opened; polling the loop delivers every message. *)
let test_2pc_on_socket_runtime () =
  let layout = Layout.make Cluster.Spec.default ~dcs:5 in
  let lp = Loop.create ~seed:1 ~dc_of:(Layout.dc_of layout) () in
  let d = Harness.deploy ~runtime:(Loop.runtime lp) ~layout ~schema in
  let tpc = Tpc.create d in
  let outcome = ref None in
  Tpc.submit tpc ~dc:2
    (Txn.make ~id:"s1"
       ~updates:[ (item 0, Update.Insert (Value.of_list [ ("stock", Value.Int 5) ])) ])
    (fun o -> outcome := Some o);
  let polls = ref 0 in
  while Option.is_none !outcome && !polls < 1_000 do
    Loop.poll lp ~max_wait_ms:0.0;
    incr polls
  done;
  Alcotest.(check bool) "committed" true (Option.fold ~none:false ~some:is_committed !outcome);
  Alcotest.(check int) "locks released" 0 (Tpc.locks_held tpc);
  for dc = 0 to 4 do
    let node = Layout.local_node layout ~dc (item 0) in
    match Store.read (Harness.store d node) (item 0) with
    | Some (v, _) -> Alcotest.(check int) "applied everywhere" 5 (Value.get_int v "stock")
    | None -> Alcotest.fail "row"
  done

(* --- Megastore* --------------------------------------------------------- *)

let make_ms () =
  deploy ~seed:7 ~rows:(rows 10 100) (fun d ->
      let ms = Ms.create d in
      (ms, Ms.submit ms))

let test_ms_commit_and_replication () =
  let ms, h = make_ms () in
  let o =
    submit_sync h ~dc:0
      (Txn.make ~id:"m1"
         ~updates:[ (item 0, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 3) ] }) ])
  in
  Alcotest.(check bool) "committed" true (is_committed o);
  Alcotest.(check int) "one log position" 1 (Ms.log_length ms);
  for dc = 0 to 4 do
    match h.Harness.peek ~dc (item 0) with
    | Some (v, _) -> Alcotest.(check int) "replicated" 3 (Value.get_int v "stock")
    | None -> Alcotest.fail "row"
  done

let test_ms_conflict_aborts_without_position () =
  let ms, h = make_ms () in
  let o1 =
    submit_sync h ~dc:0
      (Txn.make ~id:"m1"
         ~updates:[ (item 0, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 3) ] }) ])
  in
  let o2 =
    submit_sync h ~dc:1
      (Txn.make ~id:"m2"
         ~updates:[ (item 0, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 4) ] }) ])
  in
  Alcotest.(check bool) "first commits" true (is_committed o1);
  Alcotest.(check bool) "conflicting aborts" false (is_committed o2);
  Alcotest.(check int) "abort consumed no log position" 1 (Ms.log_length ms)

let test_ms_serialization_queueing () =
  (* Transactions submitted together are serialized through the log: later
     ones wait for earlier positions — the queueing that dominates the
     paper's Figure 3. *)
  let ms, h = make_ms () in
  let e = h.Harness.engine in
  let latencies = ref [] in
  for i = 0 to 9 do
    let t0 = 1.0 in
    ignore t0;
    let start = ref 0.0 in
    ignore
      (Engine.schedule e ~after:0.5 (fun () ->
           start := Engine.now e;
           h.Harness.submit ~dc:0
             (Txn.make
                ~id:(Printf.sprintf "m%d" i)
                ~updates:
                  [
                    ( item i,
                      Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int i) ] }
                    );
                  ])
             (fun _ -> latencies := (Engine.now e -. !start) :: !latencies)))
  done;
  Engine.run ~until:120_000.0 e;
  Alcotest.(check int) "all decided" 10 (List.length !latencies);
  Alcotest.(check int) "10 log positions" 10 (Ms.log_length ms);
  let sorted = List.sort Float.compare !latencies in
  let fastest = List.hd sorted and slowest = List.nth sorted 9 in
  Alcotest.(check bool) "strong queueing (10x spread)" true (slowest > 5.0 *. fastest)

(* --- behaviour pins ------------------------------------------------------ *)

(* The baselines' observable behaviour, byte for byte: a change to their
   node layout, message order or RNG draws moves one of these. *)

let pinned_reports =
  [
    "seed    1  qw-3         40 txns:  40 committed   0 aborted 0 undecided  ok (expected: \
     lost-update,read-committed,serializability)";
    "seed    1  2pc          40 txns:  12 committed  28 aborted 0 undecided  ok (clean)";
    "seed    1  megastore    40 txns:  26 committed  14 aborted 0 undecided  ok (clean)";
    "seed    2  qw-3         40 txns:  40 committed   0 aborted 0 undecided  ok (expected: \
     lost-update,read-committed,serializability)";
    "seed    2  2pc          40 txns:  12 committed  28 aborted 0 undecided  ok (clean)";
    "seed    2  megastore    40 txns:  28 committed  12 aborted 0 undecided  ok (clean)";
    "seed    3  qw-3         40 txns:  40 committed   0 aborted 0 undecided  ok (expected: \
     convergence,lost-update,read-committed,serializability)";
    "seed    3  2pc          40 txns:   9 committed  31 aborted 0 undecided  ok (clean)";
    "seed    3  megastore    40 txns:  26 committed  14 aborted 0 undecided  ok (clean)";
  ]

let test_pinned_reports () =
  let got =
    List.concat_map
      (fun seed ->
        List.map (fun p -> Baseline.report_to_string (Baseline.run ~seed p)) Baseline.protocols)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list string)) "chaos baseline reports" pinned_reports got

(* Nine clients, 250 ms apart, on two partitions with two app servers per
   DC: client [i] reads [item (i mod 6)] locally from DC [i mod 5] and
   submits a transaction — read-only, a two-key delta or a one-key
   read-modify-write, in turn.  One line per callback, in callback order:
   read or commit, client, latency, result.  A read is answered by the
   client's data center's store with no message, so in 0 ms of virtual
   time and before its own transaction's first message leaves. *)
let setup_log protocol =
  let h =
    Setup.make protocol ~seed:3 ~schema ~partitions:2 ~app_servers_per_dc:2 ~rows:(rows 6 100) ()
  in
  let e = h.Harness.engine in
  let log = ref [] in
  let note fmt = Printf.ksprintf (fun s -> log := s :: !log) fmt in
  for i = 0 to 8 do
    let dc = i mod h.Harness.num_dcs and key = item (i mod 6) in
    let updates =
      match i mod 3 with
      | 0 -> []
      | 1 ->
        [
          (key, Update.Delta [ ("stock", -1) ]);
          (item ((i + 1) mod 6), Update.Delta [ ("stock", -2) ]);
        ]
      | _ ->
        [ (key, Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int i) ] }) ]
    in
    ignore
      (Engine.schedule e ~after:(250.0 *. float_of_int i) (fun () ->
           let start = Engine.now e in
           h.Harness.read_local ~dc key (fun r ->
               note "r%d %.3f %s" i (Engine.now e -. start)
                 (match r with Some (_, v) -> string_of_int v | None -> "-"));
           h.Harness.submit ~dc (Txn.make ~id:(Printf.sprintf "t%d" i) ~updates) (fun o ->
               note "c%d %.3f %s" i (Engine.now e -. start)
                 (Format.asprintf "%a" Txn.pp_outcome o))))
  done;
  Engine.run ~until:120_000.0 e;
  List.rev !log

let pinned_setup_logs =
  [
    ( Setup.Qw 3,
      [ "r0 0.000 1"; "c0 0.000 committed"; "r1 0.000 1"; "c1 89.385 committed"; "r2 0.000 2";
        "c2 181.039 committed"; "r3 0.000 1"; "c3 0.000 committed"; "r4 0.000 1";
        "c4 125.197 committed"; "r5 0.000 2"; "c5 125.596 committed"; "r6 0.000 1";
        "c6 0.000 committed"; "r7 0.000 2"; "c7 171.223 committed"; "r8 0.000 4";
        "c8 221.868 committed" ] );
    ( Setup.Two_pc,
      [ "r0 0.000 1"; "c0 0.000 committed"; "r1 0.000 1"; "r2 0.000 1"; "r3 0.000 1";
        "c3 0.000 committed"; "c1 524.790 committed"; "r4 0.000 1"; "c2 578.249 aborted(conflict)";
        "r5 0.000 1"; "r6 0.000 1"; "c6 0.000 committed"; "c4 551.699 committed";
        "c5 450.617 aborted(conflict)"; "r7 0.000 2"; "r8 0.000 2"; "c7 602.254 committed";
        "c8 579.664 aborted(conflict)" ] );
    ( Setup.Megastore,
      [ "r0 0.000 1"; "c0 0.000 committed"; "r1 0.000 1"; "c1 199.150 committed"; "r2 0.000 2";
        "c2 176.025 aborted(conflict)"; "r3 0.000 1"; "c3 0.000 committed"; "r4 0.000 1";
        "c4 243.532 committed"; "r5 0.000 2"; "c5 1.449 aborted(conflict)"; "r6 0.000 1";
        "c6 0.000 committed"; "r7 0.000 2"; "r8 0.000 3"; "c7 301.113 committed";
        "c8 232.215 aborted(conflict)" ] );
  ]

let test_pinned_setup_logs () =
  List.iter
    (fun (protocol, want) ->
      Alcotest.(check (list string)) (Setup.name protocol) want (setup_log protocol))
    pinned_setup_logs

let suite =
  [
    Alcotest.test_case "QW commits and applies everywhere" `Quick test_qw_commits_and_applies;
    Alcotest.test_case "QW has no isolation (lost update)" `Quick test_qw_no_isolation_lost_update;
    Alcotest.test_case "QW has no constraints" `Quick test_qw_no_constraints;
    Alcotest.test_case "QW-4 slower than QW-3" `Quick test_qw4_slower_than_qw3;
    Alcotest.test_case "2PC commit" `Quick test_2pc_commit;
    Alcotest.test_case "2PC conflict aborts" `Quick test_2pc_conflict_aborts;
    Alcotest.test_case "2PC enforces constraints" `Quick test_2pc_constraint_aborts;
    Alcotest.test_case "2PC blocks on coordinator failure" `Quick suite_2pc_blocking;
    Alcotest.test_case "2PC on the socket runtime" `Quick test_2pc_on_socket_runtime;
    Alcotest.test_case "Megastore* commit & replication" `Quick test_ms_commit_and_replication;
    Alcotest.test_case "Megastore* conflict aborts" `Quick test_ms_conflict_aborts_without_position;
    Alcotest.test_case "Megastore* serializes (queueing)" `Quick test_ms_serialization_queueing;
    Alcotest.test_case "local reads send no message" `Quick test_local_read_sends_nothing;
    Alcotest.test_case "pinned chaos reports (seeds 1-3)" `Quick test_pinned_reports;
    Alcotest.test_case "pinned Setup.make latencies" `Quick test_pinned_setup_logs;
  ]
