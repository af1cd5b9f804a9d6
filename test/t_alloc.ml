(* Allocation ceilings on the protocol's per-message and per-scan paths.
   Gc.minor_words is an unboxed external in native code, so a delta over a
   call counts exactly the words the call allocated: these checks are
   deterministic, not timing-based. *)

open Mdcc_storage
module Messages = Mdcc_core.Messages
module Acceptor = Mdcc_core.Acceptor
module Config = Mdcc_core.Config
module Probe = Mdcc_bench.Probe
module Storage_node = Mdcc_core.Storage_node
module Woption = Mdcc_core.Woption

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* Minor words per op of a probe's measured run. *)
let per_op p = (Probe.run p).Probe.minor_words_per_op

let key = Key.make ~table:"item" ~id:"42"

let test_small_applied_insert () =
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let store = Store.create schema in
  let n = Acceptor.create_node ~config:(Config.make ~replication:5 ()) store in
  let keys = Array.init 100 (fun i -> Key.make ~table:"item" ~id:(string_of_int i)) in
  let up = Update.Delta [ ("stock", -1) ] in
  let commit txid key = ignore (Acceptor.visibility n txid key up true : Acceptor.visibility) in
  Array.iter
    (fun key ->
      let row = Store.ensure store key in
      row.Store.value <- Value.of_list [ ("stock", Value.Int 1_000_000) ];
      row.Store.exists <- true;
      for i = 0 to 29 do
        commit (Printf.sprintf "t%02d" i) key
      done)
    keys;
  let w = words (fun () -> Array.iter (commit "u") keys) in
  (* Each record's set holds 30 entries, below the 32 that move it into a
     txid table, so the 31st is a balanced-tree insert that copies the
     path to its leaf.  The same visibility on an empty set costs 25.05
     words; the 30 entries add 31, about log2(31) = 5 nodes of 6 words,
     where copying the set would add 180. *)
  let per_call = w /. 100.0 in
  if per_call > 56.05 then
    Alcotest.failf "a committed visibility allocated %.2f words (ceiling 56.05)" per_call;
  let again = words (fun () -> commit "u" keys.(0)) in
  Alcotest.(check (float 0.0)) "re-marking allocates nothing" 0.0 again

(* The same insert through a storage node, on a record whose set holds
   10,000 entries and so lives in a txid table: a committed visibility
   costs a bucket and the delta's store apply, however long the record's
   history.  As a map the set path-copied a branch per visibility, 110
   words in all. *)
let test_hot_visibility_constant () =
  let w = per_op Probe.visibility_hot_key in
  if w > 16.0 then Alcotest.failf "a hot-record visibility allocated %.2f words" w

(* The same on the abort path, on a record whose decided log already
   holds 10,000 voided outcomes: the log is the outcome's only home, so a
   void allocates its (txid, false) entry and a cons, 6 words, however
   long the record's history.  A node-wide (txid, key) index beside the
   log cost 7 words more. *)
let test_void_visibility_one_entry () =
  let w = per_op Probe.visibility_void_hot_key in
  if w > 6.01 then Alcotest.failf "a voided visibility allocated %.2f words (ceiling 6.01)" w

(* A span event whose detail names a node or counts a collision's votes
   reads that detail from a table rendered once, so it costs the event
   alone, as one with a constant detail does ([span_event], 9 words).
   Formatting each detail cost 50 to 68 words more. *)
let test_span_node_detail () =
  let module Event = Mdcc_core.Event in
  let obs = Mdcc_obs.Obs.create ~spans:true () in
  let s = Helpers.silent_runtime () in
  let stream = Mdcc_core.Ctx.stream (Mdcc_core.Ctx.make ~obs ()) s.Helpers.runtime ~node:3 in
  let events =
    Array.init 100 (fun i ->
        let txid = Printf.sprintf "t%03d" i
        and key = Key.make ~table:"item" ~id:(string_of_int i) in
        Option.iter (fun sp -> Mdcc_obs.Span.begin_txn sp ~txid ~at:0.0) (Mdcc_obs.Obs.spans obs);
        [|
          Event.Recovery_started { txid; key; target = i mod 20 };
          Event.Redirected { txid; key; master = i mod 20 };
          Event.Collided { txid; key; acks = i mod 5; rejects = 5 - (i mod 5) };
        |])
  in
  let emit () =
    for i = 0 to Array.length events - 1 do
      for j = 0 to 2 do
        Mdcc_core.Ctx.emit stream events.(i).(j)
      done
    done
  in
  (* The first round renders every key's label. *)
  emit ();
  let rounds = 10 in
  let w = words (fun () -> for _ = 1 to rounds do emit () done) /. Float.of_int (rounds * 300) in
  if w > 9.0 then Alcotest.failf "a span event with a node detail allocated %.2f words (ceiling 9)" w

(* A single-key fast commit on the simulated cluster: every step sends at
   most one message per destination, so the outbox folds nothing and adds
   nothing.  212.8 words a commit; 231.8 before the votes and Visibilities
   named their option instead of copying its key and transaction id, and
   before the learn timeout and the proposals' trace context stopped
   allocating an option and a closure. *)
let test_single_key_commit () =
  let w = per_op Probe.fast_commit_one_key in
  if w > 213.0 then Alcotest.failf "a single-key fast commit allocated %.2f words" w

let test_size_of_allocates_nothing () =
  let row = Value.of_list [ ("stock", Value.Int 9); ("name", Value.Str "widget") ] in
  let w =
    {
      Woption.txid = "txn17";
      key;
      update = Update.Physical { vread = 3; value = row };
      write_set = [ key; Key.make ~table:"order" ~id:"7" ];
      coordinator = 9;
    }
  in
  List.iter
    (fun (name, payload) ->
      let n =
        words (fun () ->
            for _ = 1 to 100 do
              ignore (Sys.opaque_identity (Messages.size_of payload))
            done)
      in
      Alcotest.(check (float 0.0)) name 0.0 n)
    [
      ("propose", Messages.Propose { woption = w; route = `Fast });
      ( "visibility",
        Messages.Visibility { woption = w; committed = true } );
    ]

(* Every record holds a young pending option, so the node is not idle
   and the scan still walks them all.  It pays the clock read,
   [Hashtbl.iter]'s bucket closure and the re-armed timer: nothing per
   record.  The probe checks that the scan recovers nothing. *)
let test_idle_scan_constant () =
  let w = per_op (Probe.dangling_scan_idle ~scans:10) in
  if w > 8.0 then Alcotest.failf "idle scan of 10000 records allocated %.0f words" w

(* Under the simulator a maintenance tick is one engine event re-armed in
   place, and a node with no pending option returns before it reads the
   clock: on a node whose records saw only settled transactions, an idle
   tick allocates nothing. *)
let test_idle_tick_allocates_nothing () =
  Alcotest.(check (float 0.0)) "words per idle tick" 0.0
    (per_op (Probe.maintenance_tick_idle ~ops:1_000))

(* A session read whose co-located row already meets the watermark is
   answered in process: the probe fails if any message is sent, and what
   is left is the read's two closures, the engine event that answers it
   and the store lookup.  Ceiling: the ledger's 22.01 plus 5 %. *)
let test_session_read_fresh () =
  let w = per_op (Probe.session_read_fresh ~reads:10_000) in
  if w > 23.1 then Alcotest.failf "a fresh session read allocated %.2f words (ceiling 23.1)" w

(* A [`Local] read of a loaded row at a coordinator with co-located
   stores is answered in process, as the fresh session read above is:
   what is left is the store lookup's answer, the deferred callback and
   the engine event that runs it.  1,000 rows read once to warm the tables,
   then ten more rounds; the ceiling is the words measured, 16.01. *)
let test_local_read_colocated () =
  let module Cluster = Mdcc_core.Cluster in
  let module Coordinator = Mdcc_core.Coordinator in
  let module Engine = Mdcc_sim.Engine in
  let module Network = Mdcc_sim.Network in
  let items = 1_000 and rounds = 10 in
  let engine = Engine.create ~seed:31 in
  let cluster =
    Cluster.create ~engine ~spec:Cluster.Spec.default ~config:(Config.make ~replication:5 ())
      ~schema:(Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ])
      ()
  in
  let keys = Array.init items (fun i -> Key.make ~table:"item" ~id:(string_of_int i)) in
  Cluster.load cluster
    (Array.to_list (Array.map (fun k -> (k, Value.of_list [ ("stock", Value.Int 7) ])) keys));
  let c = Cluster.coordinator cluster ~dc:0 ~rank:0 and answered = ref 0 in
  let on_row = function Some (_, 1) -> incr answered | Some _ | None -> () in
  let round () =
    Array.iter (fun k -> Coordinator.read c k on_row) keys;
    Engine.run engine
  in
  round ();
  let stats = Network.stats (Cluster.network cluster) in
  let sent = stats.Network.sent in
  answered := 0;
  let w =
    words (fun () ->
        for _ = 1 to rounds do
          round ()
        done)
    /. Float.of_int (items * rounds)
  in
  Alcotest.(check int) "every read answered" (items * rounds) !answered;
  Alcotest.(check int) "no message" sent stats.Network.sent;
  if w > 16.01 then Alcotest.failf "a co-located local read allocated %.2f words (ceiling 16.01)" w

(* Words per draw over [n] draws.  A cross-module call returns an [int64]
   or a [float] boxed (3 and 2 words); everything else a draw computes —
   the state update, the output mix, Box–Muller's intermediates — must stay
   unboxed. *)
let per_draw f =
  let n = 1_000 in
  words (fun () ->
      for _ = 1 to n do
        f ()
      done)
  /. Float.of_int n

let test_rng_draws () =
  let r = Mdcc_util.Rng.create 3 in
  let check name ceiling f =
    let w = per_draw f in
    if w > ceiling then Alcotest.failf "%s allocated %.2f words per draw (ceiling %.0f)" name w ceiling
  in
  check "Rng.int" 0.0 (fun () -> ignore (Sys.opaque_identity (Mdcc_util.Rng.int r 1000)));
  check "Rng.bool" 0.0 (fun () -> ignore (Sys.opaque_identity (Mdcc_util.Rng.bool r)));
  check "Rng.bernoulli" 0.0 (fun () ->
      ignore (Sys.opaque_identity (Mdcc_util.Rng.bernoulli r 0.5)));
  check "Rng.int64 (its boxed return only)" 3.0 (fun () ->
      ignore (Sys.opaque_identity (Mdcc_util.Rng.int64 r)));
  check "Rng.float (its boxed return only)" 2.0 (fun () ->
      ignore (Sys.opaque_identity (Mdcc_util.Rng.float r 1.0)));
  check "Rng.lognormal (its boxed return only)" 2.0 (fun () ->
      ignore (Sys.opaque_identity (Mdcc_util.Rng.lognormal r ~mu:0.0 ~sigma:0.05)))

(* The traffic meter resolves each node's counters once, so metering a
   message is four counter bumps and no name lookup. *)
let test_traffic_meter () =
  let obs = Mdcc_obs.Obs.create () in
  let on_send, on_deliver = Mdcc_obs.Obs.traffic_meter obs ~nodes:4 in
  (* The first bump of each counter creates it. *)
  on_send ~src:1 ~dst:2 ~bytes:64;
  on_deliver ~src:1 ~dst:2 ~bytes:64;
  let w =
    words (fun () ->
        for _ = 1 to 1_000 do
          on_send ~src:1 ~dst:2 ~bytes:64;
          on_deliver ~src:1 ~dst:2 ~bytes:64
        done)
  in
  Alcotest.(check (float 0.0)) "meter allocates nothing" 0.0 w;
  let r = Mdcc_obs.Obs.registry obs in
  Alcotest.(check int) "sent" 1_001 (Mdcc_obs.Registry.counter r "net.sent.node01");
  Alcotest.(check int) "recv bytes" (1_001 * 64)
    (Mdcc_obs.Registry.counter r "net.recv_bytes.node02")

(* The chaos run's deployment, built as every run builds it: five
   coordinators, five storage nodes, the traffic meter's counters and the
   streams.  The small protocol tables start at 16 buckets and the
   counter names are built without formats: 2,785 words.  Coordinator
   tables of 256 buckets and formatted names cost 8,491. *)
let test_chaos_deploy () =
  let spec = Probe.chaos_spec in
  let engine = Mdcc_sim.Engine.create ~seed:1 in
  let ctx =
    Mdcc_core.Ctx.make ~history:(Mdcc_core.History.create ())
      ~obs:(Mdcc_obs.Obs.create ~spans:true ()) ()
  in
  let w = words (fun () -> ignore (Mdcc_chaos.Runner.deploy spec ~engine ~ctx)) in
  if w > 3_000.0 then Alcotest.failf "the chaos deployment allocated %.0f words" w

(* The checker reads the history in place: per history event it conses
   at most one list cell, and per transaction it keeps one record.  On
   this 280-event history it allocates 14.3 words an event; copying the
   history, a tuple per write and a 64-bucket table per check cost 50.4. *)
let test_checker_per_event () =
  let h = Probe.chaos_history () in
  let layout = Mdcc_core.Cluster.Layout.make (Mdcc_core.Cluster.Spec.make ()) ~dcs:5 in
  let w =
    words (fun () ->
        ignore
          (Mdcc_chaos.Checker.check
             ~bounds:(Schema.bounds_of Mdcc_chaos.Runner.stock_schema)
             ~partition_of:(Mdcc_core.Cluster.Layout.partition layout) h))
  in
  let per_event = w /. Float.of_int (Mdcc_core.History.length h) in
  if per_event > 16.0 then
    Alcotest.failf "the checker allocated %.2f words per history event" per_event

(* A message in flight is a pooled heap record: once the pool holds the
   peak number in flight, sending, the jitter draw and delivery allocate
   nothing at all.  The probe checks that every message is delivered. *)
let test_network_message_path () =
  Alcotest.(check (float 0.0)) "words per delivered message" 0.0
    (per_op (Probe.network_send ~ops:10_000))

(* The socket loop posts a node message to its engine as the same pooled
   record: with the traffic meter on, a message through [Loop.runtime]
   costs under a word, [Loop.poll]'s own per-call lists included. *)
let test_loop_message_path () =
  let per_msg = per_op (Probe.loop_send ~ops:10_000) in
  if per_msg >= 1.0 then Alcotest.failf "%.2f words per loop message (ceiling 1)" per_msg

(* A loop iteration's own cost is the lists select takes and returns, paid
   once however many requests the iteration serves: with a listener and two
   connections, an idle poll and one that reads both connections stay a few
   words, so the wire server's words per request do not follow how many
   requests an iteration happens to serve. *)
let test_loop_poll_light () =
  let module Loop = Mdcc_runtime_unix.Loop in
  let lp = Loop.create () in
  let received = ref 0 in
  let port =
    Loop.listen lp ~port:0 (fun _ ->
        { Loop.on_data = (fun _ _ n -> received := !received + n); on_close = ignore })
  in
  let clients =
    Array.init 2 (fun _ ->
        let fd = Unix.socket PF_INET SOCK_STREAM 0 in
        Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
        fd)
  in
  Fun.protect
    ~finally:(fun () ->
      Array.iter Unix.close clients;
      Loop.close_listeners lp)
    (fun () ->
      while Loop.open_conns lp < 2 do
        Loop.poll lp ~max_wait_ms:10.0
      done;
      let polls = 1_000 in
      let idle = words (fun () -> for _ = 1 to polls do Loop.poll lp ~max_wait_ms:0.0 done) in
      let per_idle = idle /. Float.of_int polls in
      if per_idle > 16.0 then Alcotest.failf "%.1f words per idle poll (ceiling 16)" per_idle;
      let byte = Bytes.make 1 'x' and reading = ref 0 in
      let busy =
        words (fun () ->
            for _ = 1 to polls do
              let target = !received + 2 in
              Array.iter (fun fd -> ignore (Unix.write fd byte 0 1)) clients;
              while !received < target do
                Loop.poll lp ~max_wait_ms:10.0;
                incr reading
              done
            done)
      in
      Alcotest.(check int) "every byte read" (2 * polls) !received;
      let per_busy = busy /. Float.of_int !reading in
      if per_busy > 32.0 then Alcotest.failf "%.1f words per reading poll (ceiling 32)" per_busy)

(* The event consumers a node is built with (tracing is always off). *)
let ctx_of = function
  | `None -> Mdcc_core.Ctx.make ~obs:(Mdcc_obs.Obs.create ()) ()
  | `History ->
    Mdcc_core.Ctx.make ~history:(Mdcc_core.History.create ()) ~obs:(Mdcc_obs.Obs.create ()) ()
  | `Spans -> Mdcc_core.Ctx.make ~obs:(Mdcc_obs.Obs.create ~spans:true ()) ()

let replicas = [ 0; 1; 2; 3; 4 ]

(* A coordinator of five replicas on a silent runtime; returns it and its
   message handler. *)
let bare_coordinator ?(consumer = `None) () =
  let s = Helpers.silent_runtime () in
  let coord =
    Mdcc_core.Coordinator.create ~runtime:s.Helpers.runtime
      ~config:(Config.make ~replication:5 ()) ~node_id:9
      ~replicas:(fun _ -> replicas)
      ~master_of:(fun _ -> 0)
      ~ctx:(ctx_of consumer) ()
  in
  (coord, s.Helpers.deliver)

(* Fast votes that do not yet decide their key — the common arrival — are
   counted in place: no vote list, no copies. *)
let test_fast_vote_arrival () =
  let coord, deliver = bare_coordinator () in
  let txns = 100 in
  let votes = ref [] in
  for i = 0 to txns - 1 do
    let txid = Printf.sprintf "v%03d" i in
    Mdcc_core.Coordinator.submit coord
      (Txn.make ~id:txid ~updates:[ (key, Update.Delta [ ("stock", -1) ]) ])
      ignore;
    (* Three of five: below the fast quorum of four. *)
    for acceptor = 0 to 2 do
      votes := (acceptor, Helpers.fast_vote ~key ~txid Woption.Accepted) :: !votes
    done
  done;
  let votes = Array.of_list (List.rev !votes) in
  let w = words (fun () -> Array.iter (fun (src, v) -> deliver ~src v) votes) in
  let per_vote = w /. Float.of_int (Array.length votes) in
  if per_vote > 2.0 then Alcotest.failf "a fast vote allocated %.2f words" per_vote;
  Alcotest.(check int) "nothing decided" txns (Mdcc_core.Coordinator.inflight coord)

(* ---- the event stream's liveness check ---- *)

(* Words per transaction of the vote that decides it: the coordinator's
   learn, decide, Visibility broadcast and callback. *)
let decide_words ?(txid = fun i -> Printf.sprintf "d%03d" i) consumer =
  let coord, deliver = bare_coordinator ~consumer () in
  let txns = 50 in
  let deciding =
    Array.init txns (fun i ->
        let txid = txid i in
        Mdcc_core.Coordinator.submit coord
          (Txn.make ~id:txid ~updates:[ (key, Update.Delta [ ("stock", -1) ]) ])
          ignore;
        for acceptor = 0 to 2 do
          deliver ~src:acceptor (Helpers.fast_vote ~key ~txid Woption.Accepted)
        done;
        Helpers.fast_vote ~key ~txid Woption.Accepted)
  in
  let w = words (fun () -> Array.iter (fun v -> deliver ~src:3 v) deciding) in
  Alcotest.(check int) "all decided" 0 (Mdcc_core.Coordinator.inflight coord);
  w /. Float.of_int txns

(* Words per [submit] of a 3-key transaction: its slots, route settling,
   the proposals to five replicas each, and the learn timer. *)
let submit_words consumer =
  let coord, _ = bare_coordinator ~consumer () in
  let txns = 50 in
  let item i = Key.make ~table:"item" ~id:(string_of_int i) in
  let batch =
    Array.init txns (fun i ->
        Txn.make ~id:(Printf.sprintf "s%03d" i)
          ~updates:(List.init 3 (fun j -> (item ((3 * i) + j), Update.Delta [ ("stock", -1) ]))))
  in
  let w =
    words (fun () -> Array.iter (fun txn -> Mdcc_core.Coordinator.submit coord txn ignore) batch)
  in
  Alcotest.(check int) "all in flight" txns (Mdcc_core.Coordinator.inflight coord);
  w /. Float.of_int txns

(* Words per message at a storage node: a fast proposal of each of [n]
   transactions on its own record, then the committed Visibility of each. *)
let node_words ?(txid = fun i -> Printf.sprintf "n%03d" i) ?(id = string_of_int) consumer =
  let s = Helpers.silent_runtime () in
  let _node =
    Storage_node.create ~runtime:s.Helpers.runtime
      ~config:(Config.make ~replication:5 ())
      ~node_id:0
      ~schema:(Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ])
      ~replicas:(fun _ -> replicas)
      ~master_of:(fun _ -> 1)
      ~ctx:(ctx_of consumer) ()
  in
  let n = 50 in
  let update = Update.Delta [ ("stock", -1) ] in
  let opts =
    Array.init n (fun i ->
        let k = Key.make ~table:"item" ~id:(id i) in
        { Woption.txid = txid i; key = k; update; write_set = [ k ]; coordinator = 9 })
  in
  let proposals = Array.map (fun w -> Messages.Propose { woption = w; route = `Fast }) opts in
  let visibilities =
    Array.map
      (fun (w : Woption.t) ->
        Messages.Visibility { woption = { w with Woption.update }; committed = true })
      opts
  in
  (* The first message to a record creates its state; warm every record
     with another transaction's proposal so the measured ones pay only
     the vote. *)
  Array.iteri
    (fun i (w : Woption.t) ->
      let warm = { w with Woption.txid = Printf.sprintf "warm%d" i } in
      s.Helpers.deliver ~src:9 (Messages.Propose { woption = warm; route = `Fast }))
    opts;
  let per_msg msgs =
    words (fun () -> Array.iter (fun m -> s.Helpers.deliver ~src:9 m) msgs) /. Float.of_int n
  in
  let vote = per_msg proposals in
  let vis = per_msg visibilities in
  (vote, vis)

(* With no consumer — tracing off, spans off, no history — the protocol
   steps allocate no more than they did before the event stream existed
   (the storage node's figures), or within 5 % of their measured cost
   (the coordinator's decide, 4.2 words, and 3-key submit, 97.8: the
   three keys share their five replicas, so the proposals leave as one
   Batch record, a 3-word block over a 4-word array, that all five
   replicas receive). *)
let test_no_consumer () =
  let ceiling name limit w =
    if w > limit then Alcotest.failf "%s allocated %.2f words (ceiling %.2f)" name w limit
  in
  let vote, vis = node_words `None in
  ceiling "coordinator decide" 4.5 (decide_words `None);
  ceiling "coordinator submit of 3 keys" 102.7 (submit_words `None);
  ceiling "storage-node fast vote" 17.08 vote;
  ceiling "storage-node visibility" 30.2 vis

(* The same deciding votes on the simulator's runtime, each delivered
   by the network to a coordinator (node 1 of ec2_five with two nodes a
   region) whose replicas are the regions' node 0s.  Words per
   transaction of the second of two equal rounds, so the message pool
   and the event heap are warm. *)
let sim_decide_words () =
  let module Engine = Mdcc_sim.Engine in
  let module Network = Mdcc_sim.Network in
  let engine = Engine.create ~seed:3 in
  let net = Network.create engine (Mdcc_sim.Topology.ec2_five ~nodes_per_dc:2 ()) () in
  let replicas = [ 0; 2; 4; 6; 8 ] in
  List.iter (fun r -> Network.register net r (fun ~src:_ _ -> ())) replicas;
  let coord =
    Mdcc_core.Coordinator.create ~runtime:(Mdcc_core.Runtime.of_network net)
      ~config:(Config.make ~replication:5 ()) ~node_id:1
      ~replicas:(fun _ -> replicas)
      ~master_of:(fun _ -> 0)
      ~ctx:(ctx_of `None) ()
  in
  let txns = 50 in
  let round prefix =
    let deciding =
      Array.init txns (fun i ->
          let txid = Printf.sprintf "%s%03d" prefix i in
          Mdcc_core.Coordinator.submit coord
            (Txn.make ~id:txid ~updates:[ (key, Update.Delta [ ("stock", -1) ]) ])
            ignore;
          List.iteri
            (fun j src ->
              if j < 3 then
                Network.send net ~src ~dst:1 (Helpers.fast_vote ~key ~txid Woption.Accepted))
            replicas;
          Helpers.fast_vote ~key ~txid Woption.Accepted)
    in
    (* Half a second delivers every vote and Visibility, well inside the
       1.2 s learn timeout. *)
    let settle () = Engine.run ~until:(Engine.now engine +. 500.0) engine in
    settle ();
    let deliver votes =
      words (fun () ->
          Array.iter (Network.send net ~src:6 ~dst:1) votes;
          settle ())
    in
    let w = deliver deciding in
    Alcotest.(check int) "all decided" 0 (Mdcc_core.Coordinator.inflight coord);
    (* Less what sending and running cost with nothing to deliver. *)
    (w -. deliver [||]) /. Float.of_int txns
  in
  ignore (round "w" : float);
  round "h"

(* On the simulator's runtime the deciding vote's delivery is held to
   the end of its instant by one spawned zero-delay event, which then
   sends the Visibilities as pooled messages.  So the vote costs at most
   what it costs on the scripted runtime, whose spawn runs the release
   at once, plus that event's record, a 4-word thunk: 8.0 words against
   4.2, which counts 0.2 of its own harness. *)
let test_held_delivery () =
  let extra = sim_decide_words () -. decide_words `None in
  if extra > 4.0 then
    Alcotest.failf "a held delivery allocated %.2f words beyond its event record" (extra -. 4.0)

(* A storage-node delivery is one outbox step.  A status query for a
   transaction the node never saw sends one reply, so the step queues it
   and leaves it bare, and the delivery allocates the reply's record (6
   words) and nothing else: the bracket adds 0 words. *)
let test_one_message_step () =
  let s = Helpers.scripted_runtime ~record:false () in
  let _node =
    Storage_node.create ~runtime:s.Helpers.runtime ~config:(Config.make ~replication:5 ())
      ~node_id:0
      ~schema:(Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ])
      ~replicas:(fun _ -> replicas)
      ~master_of:(fun _ -> 0)
      ()
  in
  let query = Messages.Status_query { txid = "t"; key } in
  s.Helpers.deliver ~src:1 query;
  let per_delivery =
    words (fun () ->
        for _ = 1 to 100 do
          s.Helpers.deliver ~src:1 query
        done)
    /. 100.0
  in
  let reply =
    words (fun () ->
        ignore
          (Sys.opaque_identity
             (Messages.Status_reply
                { txid = "t"; key; status = Messages.Status_unknown; acceptor = 0 })))
  in
  Alcotest.(check (float 0.0)) "a one-message step allocates only its message" reply per_delivery

(* Routing an option inside its record's classic window allocates
   nothing: a submit of a [Physical] option whose key has a live window
   allocates exactly what the same submit allocates in Multi mode, where
   every option goes classic without a lookup.  Sends are recorded, so a
   fast route would cost more and fail the check too. *)
let test_window_route () =
  let n = 50 in
  let keys = Array.init n (fun i -> Key.make ~table:"item" ~id:(string_of_int i)) in
  let submit_words mode =
    let s = Helpers.scripted_runtime () in
    let coord =
      Mdcc_core.Coordinator.create ~runtime:s.Helpers.runtime
        ~config:(Config.make ~mode ~replication:5 ())
        ~node_id:9
        ~replicas:(fun _ -> replicas)
        ~master_of:(fun _ -> 0)
        ~ctx:(ctx_of `None) ()
    in
    let txns prefix =
      Array.mapi
        (fun i k ->
          Txn.make ~id:(Printf.sprintf "%s%03d" prefix i)
            ~updates:[ (k, Update.Physical { vread = 5; value = Value.empty }) ])
        keys
    in
    (* Each key's window, from a Redirect of an open transaction. *)
    Array.iter
      (fun txn ->
        Mdcc_core.Coordinator.submit coord txn ignore;
        s.Helpers.deliver ~src:1
          (Messages.Redirect
             { key = fst (List.hd txn.Txn.updates); txid = txn.Txn.id; master = 0;
               classic_until = 100 }))
      (txns "r");
    ignore (s.Helpers.drain ());
    let measured = txns "w" in
    let w =
      words (fun () ->
          Array.iter (fun txn -> Mdcc_core.Coordinator.submit coord txn ignore) measured)
    in
    Alcotest.(check (list int)) "one classic proposal each, to the master"
      (List.init n (fun _ -> 0))
      (List.map fst (s.Helpers.drain ()));
    w
  in
  let multi = submit_words Config.Multi in
  Alcotest.(check (float 0.0)) "words beyond Multi's submits" 0.0
    ((submit_words Config.Full -. multi) /. Float.of_int n)

(* A classic round at a stable master: the [Propose], its Phase2a fan-out
   with the master's own vote and ack, two remote acks and the [Learned]
   to the coordinator.  The round's state, the master's own pending vote
   and the two messages are 30 words; finding the round, counting its
   acks and announcing the decision allocate nothing more (108 words a
   round when they used closures, options and ack lists). *)
let test_classic_round () =
  let module Ballot = Mdcc_paxos.Ballot in
  let s = Helpers.silent_runtime () and obs = Mdcc_obs.Obs.create () in
  let _node =
    Storage_node.create ~runtime:s.Helpers.runtime
      ~config:(Config.make ~mode:Config.Multi ~replication:5 ())
      ~node_id:0
      ~schema:(Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ])
      ~replicas:(fun _ -> replicas)
      ~master_of:(fun _ -> 0)
      ~ctx:(Mdcc_core.Ctx.make ~obs ()) ()
  in
  let ballot = Ballot.classic ~number:1 ~proposer:0 in
  let n = 50 in
  let update = Update.Delta [ ("stock", -1) ] in
  let round prefix acks i =
    let k = Key.make ~table:"item" ~id:(string_of_int i) in
    let txid = Printf.sprintf "%s%03d" prefix i in
    let w = { Woption.txid; key = k; update; write_set = [ k ]; coordinator = 9 } in
    let ack = Messages.Phase2b_master { key = k; txid; ballot; ok = true } in
    let propose = Messages.Propose { woption = w; route = `Classic } in
    Array.of_list ((9, propose) :: List.map (fun src -> (src, ack)) acks)
  in
  let run msgs = Array.iter (Array.iter (fun (src, m) -> s.Helpers.deliver ~src m)) msgs in
  (* The first round on a record creates its acceptor and master state.
     Every replica answers it, on a clock that stands still, so all four
     measure alike and every later round sends its Phase2a to all at once:
     nothing waits for an epoch that this runtime never ends. *)
  run (Array.init n (round "warm" [ 1; 2; 3; 4 ]));
  let rounds = Array.init n (round "c" [ 1; 2 ]) in
  let per_round = words (fun () -> run rounds) /. Float.of_int n in
  Alcotest.(check int) "every round learned" (2 * n)
    (Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry obs) "classic_learned");
  if per_round > 48.0 then Alcotest.failf "a classic round allocated %.1f words" per_round

(* Classic rounds at a stable master (node 0) over the simulator, one at
   a time, each run until every message is delivered: [n] warm rounds,
   one more whose sends in its first millisecond are counted, then [n]
   measured ones.  Returns the Phase2a's the counted round sent at once
   and the minor words per measured round. *)
let epoch_rounds topology =
  let module Engine = Mdcc_sim.Engine in
  let module Network = Mdcc_sim.Network in
  let engine = Engine.create ~seed:29 in
  let net = Network.create engine (Mdcc_sim.Topology.add_nodes topology ~per_dc:1) () in
  let runtime = Mdcc_core.Runtime.of_network net in
  let config = Config.make ~mode:Config.Multi ~replication:5 () in
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let replicas = [ 0; 1; 2; 3; 4 ] in
  for node_id = 0 to 4 do
    ignore
      (Storage_node.create ~runtime ~config ~node_id ~schema
         ~replicas:(fun _ -> replicas)
         ~master_of:(fun _ -> 0)
         ()
        : Storage_node.t)
  done;
  (* Node 5, DC 0's first app server, coordinates and ignores the Learned. *)
  Network.register net 5 (fun ~src:_ _ -> ());
  let n = 50 in
  let propose prefix i =
    let k = Key.make ~table:"item" ~id:(string_of_int i) in
    let w =
      { Woption.txid = Printf.sprintf "%s%03d" prefix i; key = k; update = Update.Delta [];
        write_set = [ k ]; coordinator = 5 }
    in
    Messages.Propose { woption = w; route = `Classic }
  in
  let drain () =
    while Engine.step engine do
      ()
    done
  in
  let run msgs =
    Array.iter
      (fun m ->
        Network.send net ~src:5 ~dst:0 m;
        drain ())
      msgs
  in
  run (Array.init n (propose "warm"));
  let sent () = (Network.stats net).Network.sent in
  let before = sent () in
  Network.send net ~src:5 ~dst:0 (propose "count" 0);
  Engine.run ~until:(Engine.now engine +. 1.0) engine;
  let at_once = sent () - before - 1 in
  drain ();
  let rounds = Array.init n (propose "c") in
  (at_once, words (fun () -> run rounds) /. Float.of_int n)

(* From us-west, the master's two nearest replicas are us-east and Tokyo:
   the Phase2a's for Ireland and Singapore wait for the epoch.  One round
   per epoch leaves each of them alone, bare, so no Batch is built and a
   round allocates exactly what it does where every round trip is equal
   and nothing waits: arming and flushing the epoch cost nothing. *)
let test_epoch_free () =
  let equal =
    Mdcc_sim.Topology.make ~dc_names:(Array.init 5 string_of_int)
      ~rtt:(Array.init 5 (fun a -> Array.init 5 (fun b -> if a = b then 0.0 else 100.0)))
      ~nodes_per_dc:1 ()
  in
  let at_once_equal, flat = epoch_rounds equal in
  let at_once_ec2, held = epoch_rounds (Mdcc_sim.Topology.ec2_five ()) in
  Alcotest.(check int) "equal round trips: every Phase2a at once" 4 at_once_equal;
  Alcotest.(check int) "EC2: the two nearest at once" 2 at_once_ec2;
  Alcotest.(check (float 0.0)) "words the epoch adds to a round" 0.0 (held -. flat)

let delta = Update.Delta [ ("stock", -1) ]

let option_on i txid =
  let k = Key.make ~table:"item" ~id:(string_of_int i) in
  { Woption.txid = Printf.sprintf "%s%03d" txid i; key = k; update = delta; write_set = [ k ];
    coordinator = 1 }

let propose (w : Woption.t) = Messages.Propose { woption = w; route = `Fast }

let phase2a (w : Woption.t) =
  Messages.Phase2a
    { key = w.Woption.key; ballot = Mdcc_paxos.Ballot.classic ~number:1 ~proposer:1; woption = w;
      decision = Woption.Accepted; classic_until = 0; rebase = None }

let commit (w : Woption.t) =
  Messages.Visibility { woption = { w with Woption.update = delta }; committed = true }

(* A vote takes a released vote from the node's pool and stamps its time
   into the vote's own cell: once the records are warm and an earlier
   vote settled, a fast vote allocates only its [Phase2b_fast] and a
   classic one only its [Phase2b_master] (6 words each: an extension
   constructor's block also holds the constructor).  A Visibility that
   settles a record's only pending vote allocates nothing for the chain:
   exactly what the same Visibility costs on a record that has no vote. *)
let test_settled_votes () =
  let n = 50 in
  let deliver = Probe.sim_node () in
  let on ?(first = 0) prefix = Array.init n (fun i -> option_on (first + i) prefix) in
  let warm = Array.append (on "warm") (on ~first:n "warm") in
  deliver (Array.map propose warm);
  deliver (Array.map commit warm);
  let per_msg msgs = words (fun () -> deliver msgs) /. Float.of_int (Array.length msgs) in
  let fast = on "f" and classic = on "c" in
  let vote = per_msg (Array.map propose fast) in
  let settle = per_msg (Array.map commit fast) in
  let classic_vote = per_msg (Array.map phase2a classic) in
  deliver (Array.map commit classic);
  let unvoted = per_msg (Array.map commit (on ~first:n "c")) in
  if vote > 6.5 then Alcotest.failf "a settled fast vote allocated %.2f words" vote;
  if classic_vote > 6.5 then Alcotest.failf "a classic vote allocated %.2f words" classic_vote;
  Alcotest.(check (float 0.0)) "settling the only vote costs what no vote does" unvoted settle

(* Each acceptor step alone, with no runtime, on warm records and a warm
   vote pool: ROADMAP item 13's acceptor line.  A fast vote and a classic
   Phase 2a vote allocate nothing (the verdicts are constants and the
   votes come from the pool); a committed Visibility allocates its
   applied-set insert and the delta's new row value, 20 words.  A Phase
   1a promise allocates the bucket of its promise mark, 4 words, in a
   table a first promise on every record has grown.  The master's Phase
   1 resolution of one classic-voted option from three promises
   allocates its fold's two tables, candidate lists and validation chain,
   the re-based state and its verdict: 351 words. *)
let test_acceptor_steps () =
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let store = Store.create schema in
  let n = Acceptor.create_node ~config:(Config.make ~replication:5 ()) store in
  let now = { Mdcc_sim.Engine.time = 0.0 } and count = 50 in
  let ballot = Mdcc_paxos.Ballot.classic ~number:1 ~proposer:1 in
  let on prefix = Array.init count (fun i -> option_on i prefix) in
  let fast (w : Woption.t) =
    ignore (Acceptor.fast_propose n (Acceptor.record n w.Woption.key) ~now w : Acceptor.fast)
  in
  let commit (w : Woption.t) =
    ignore (Acceptor.visibility n w.Woption.txid w.Woption.key delta true : Acceptor.visibility)
  in
  let classic (w : Woption.t) =
    ignore
      (Acceptor.phase2a n (Acceptor.record n w.Woption.key) ~now ballot w Woption.Accepted
         ~classic_until:0 ~rebase:None
        : Acceptor.phase2a)
  in
  (* All warm votes are out at once, so the pool ends up holding [count]. *)
  let warm = on "warm" in
  Array.iter
    (fun (w : Woption.t) ->
      let row = Store.ensure store w.Woption.key in
      row.Store.value <- Value.of_list [ ("stock", Value.Int 1_000) ];
      row.Store.exists <- true;
      fast w)
    warm;
  Array.iter commit warm;
  let per_step step opts =
    words (fun () -> Array.iter step opts) /. Float.of_int (Array.length opts)
  in
  let promise ballot (w : Woption.t) =
    ignore (Acceptor.phase1a n (Acceptor.record n w.Woption.key) ballot : bool)
  in
  (* A classic Phase 2a clears each warm promise mark, keeping the marks'
     grown table. *)
  Array.iter (promise ballot) warm;
  Array.iter classic warm;
  let opts = on "f" and classic_opts = on "c" in
  let vote = per_step fast opts in
  let visibility = per_step commit opts in
  let classic_vote = per_step classic classic_opts in
  let phase1a = per_step (promise (Mdcc_paxos.Ballot.classic ~number:2 ~proposer:1)) classic_opts in
  (* Each classic record resolved from three copies of its own Phase 1b
     promise, built beforehand: one classic-voted option. *)
  let promised =
    Array.map
      (fun (w : Woption.t) ->
        let rs = Acceptor.record n w.Woption.key in
        (rs, List.map (fun src -> (src, Acceptor.promise n rs)) [ 0; 1; 2 ]))
      classic_opts
  in
  let resolve (rs, promises) =
    ignore
      (Acceptor.resolve n rs ~promises ~extras:[] ~replicas:[ 0; 1; 2; 3; 4 ]
        : Acceptor.resolution)
  in
  let resolution = per_step resolve promised in
  Alcotest.(check (float 0.0)) "words per fast vote" 0.0 vote;
  Alcotest.(check (float 0.0)) "words per classic vote" 0.0 classic_vote;
  if visibility > 20.0 then
    Alcotest.failf "a committed visibility allocated %.2f words (ceiling 20)" visibility;
  if phase1a > 4.0 then
    Alcotest.failf "a Phase 1a promise allocated %.2f words (ceiling 4)" phase1a;
  if resolution > 351.0 then
    Alcotest.failf "a Phase 1 resolution allocated %.2f words (ceiling 351)" resolution

let huge = 16_000

(* With only a history attached, no key or outcome string is rendered: the
   keys and txids here are [huge] bytes, so one rendering would cost over
   2,000 words. *)
let test_history_renders_nothing () =
  let long i = Printf.sprintf "%0*d" huge i in
  let vote, vis = node_words ~txid:long ~id:long `History in
  let decide = decide_words ~txid:long `History in
  List.iter
    (fun (name, w) ->
      if w > 200.0 then Alcotest.failf "%s with a history allocated %.0f words" name w)
    [ ("decide", decide); ("fast vote", vote); ("visibility", vis) ]

(* With only spans on, no trace line is formatted: a line would copy the
   [huge]-byte txid, which a span event only references. *)
let test_spans_format_no_line () =
  let long i = Printf.sprintf "%0*d" huge i in
  let vote, vis = node_words ~txid:long `Spans in
  let decide = decide_words ~txid:long `Spans in
  List.iter
    (fun (name, w) ->
      if w > 1000.0 then Alcotest.failf "%s with spans on allocated %.0f words" name w)
    [ ("decide", decide); ("fast vote", vote); ("visibility", vis) ]

(* The wire parser tokenises in place: a request costs what it hands on
   (its key and data strings, the request value, the queue cell and
   [next]'s [Some]), not a line string and token lists. *)
let test_parser_words () =
  let check name ceiling line =
    let n = 1_000 in
    let stream = Bytes.of_string (String.concat "" (List.init n (fun _ -> line))) in
    let w = words (Probe.parse_in_chunks stream) /. Float.of_int n in
    if w > ceiling then Alcotest.failf "%s allocated %.1f words (ceiling %.0f)" name w ceiling
  in
  check "a get line" 24.0 "get k000123\r\n";
  check "a set of 64 bytes" 48.0 ("set k000123 0 0 64\r\n" ^ String.make 64 'v' ^ "\r\n")

(* Txids and [VALUE] lines write their numbers digit by digit; the
   strings must be [Printf]'s, and a rendered hit allocates nothing. *)
let test_number_formatting () =
  let check_txid n =
    Alcotest.(check string) (string_of_int n) (Printf.sprintf "wire%06d" n)
      (Mdcc_wire.Server.txid_of_int n)
  in
  let hit flags cas =
    { Mdcc_wire.Protocol.h_key = "k"; h_flags = flags; h_data = "ab"; h_cas = cas }
  in
  let check_hit flags cas =
    let b = Buffer.create 64 in
    Mdcc_wire.Protocol.render_hit b ~with_cas:true (hit flags cas);
    Alcotest.(check string) "VALUE line" (Printf.sprintf "VALUE k %d 2 %d\r\nab\r\n" flags cas)
      (Buffer.contents b)
  in
  List.iter check_txid [ 0; 9; 10; 99_999; 100_000; 999_999; 1_000_000; max_int ];
  List.iter (fun n -> check_hit n (-n)) [ 0; 9; 10; -1; -10; max_int; min_int ];
  let r = Mdcc_util.Rng.create 27 in
  for _ = 1 to 1_000 do
    check_txid (Mdcc_util.Rng.int r 10_000_000);
    check_txid (Mdcc_util.Rng.int r max_int);
    let n = Mdcc_util.Rng.int r max_int in
    check_hit n (-n)
  done;
  let b = Buffer.create 4096 and h = hit 17 123_456 in
  let w =
    words (fun () ->
        for _ = 1 to 100 do
          Buffer.clear b;
          Mdcc_wire.Protocol.render_hit b ~with_cas:true h
        done)
  in
  Alcotest.(check (float 0.0)) "words per rendered hit" 0.0 w

(* A transaction decision stepped alone, with no runtime: on a warm
   decision, fast votes that count, repeat, decide and collide allocate
   nothing, since each verdict is a constant and a learned decision is a
   shared [Some]. *)
let test_decision_vote () =
  let module Txn_decision = Mdcc_core.Txn_decision in
  let config = Config.make ~replication:5 () in
  let n = 100 in
  let decision i =
    Txn_decision.of_txn ~replicas:(fun _ -> replicas) ~coordinator:9
      (Txn.make ~id:(Printf.sprintf "w%03d" i) ~updates:[ (key, Update.Delta [ ("stock", -1) ]) ])
  in
  let deciding = Array.init n decision and colliding = Array.init n decision in
  let vote d acceptor decision = Txn_decision.fast_vote config d 0 ~acceptor decision in
  let w =
    words (fun () ->
        for i = 0 to n - 1 do
          for acceptor = 0 to 3 do
            ignore (vote deciding.(i) acceptor Woption.Accepted);
            ignore (vote deciding.(i) acceptor Woption.Accepted)
          done;
          for acceptor = 0 to 3 do
            ignore (vote colliding.(i) acceptor (Woption.of_ok (acceptor < 2)))
          done
        done)
  in
  Alcotest.(check (float 0.0)) "words per vote step" 0.0 (w /. Float.of_int (12 * n));
  Alcotest.(check bool) "every deciding one learned, every colliding one escalated" true
    (Array.for_all (fun d -> Txn_decision.learned d 0 = Some Woption.Accepted) deciding
    && Array.for_all (fun d -> not (Txn_decision.fast_path d)) colliding)

(* A leader's Phase 2b step alone, with no runtime: on [count] stable
   masters with one round each, an ack that counts, a repeated ack, an ack
   at another ballot and one for no round decide nothing and allocate
   nothing, since each verdict is a constant and a tally an immediate. *)
let test_leader_ack () =
  let module Leader = Mdcc_core.Leader in
  let config = Config.make ~mode:Config.Multi ~replication:5 () in
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let store = Store.create schema in
  let n = Acceptor.create_node ~config store and count = 100 in
  let opts = Array.init count (fun i -> option_on i "a") in
  let leaders =
    Array.map
      (fun (w : Woption.t) ->
        let l = Leader.create config ~self:0 ~master_of:(fun _ -> 0) w.Woption.key in
        let rs = Acceptor.record n w.Woption.key in
        ignore (Leader.propose l n rs store ~self:0 w ~notify:[] : Leader.verdict);
        l)
      opts
  in
  let ballot = Mdcc_paxos.Ballot.classic ~number:1 ~proposer:0
  and other = Mdcc_paxos.Ballot.classic ~number:1 ~proposer:3 in
  let ack l src txid ballot = Leader.ack l ~self:0 ~quorum:3 ~replicas ~src txid ballot ~ok:true in
  let pending = ref 0 in
  let w =
    words (fun () ->
        for i = 0 to count - 1 do
          let l = leaders.(i) and txid = opts.(i).Woption.txid in
          if ack l 1 txid ballot = Leader.Pending then incr pending;
          if ack l 1 txid ballot = Leader.Pending then incr pending;
          if ack l 2 txid other = Leader.Pending then incr pending;
          if ack l 2 "none" ballot = Leader.Pending then incr pending
        done)
  in
  Alcotest.(check int) "no step decided" (4 * count) !pending;
  Alcotest.(check (float 0.0)) "words per ack step" 0.0 (w /. Float.of_int (4 * count))

let suite =
  [
    Alcotest.test_case "no consumer: decide, vote, visibility" `Quick test_no_consumer;
    Alcotest.test_case "a held delivery costs one event record" `Quick test_held_delivery;
    Alcotest.test_case "a one-message storage-node step adds no words" `Quick
      test_one_message_step;
    Alcotest.test_case "history only renders no strings" `Quick test_history_renders_nothing;
    Alcotest.test_case "spans only format no trace line" `Quick test_spans_format_no_line;
    Alcotest.test_case "traffic meter allocates nothing" `Quick test_traffic_meter;
    Alcotest.test_case "chaos deployment set-up" `Quick test_chaos_deploy;
    Alcotest.test_case "checker words per history event" `Quick test_checker_per_event;
    Alcotest.test_case "network message path allocates nothing" `Quick
      test_network_message_path;
    Alcotest.test_case "loop message path is under a word" `Quick test_loop_message_path;
    Alcotest.test_case "loop poll allocates only select's lists" `Quick test_loop_poll_light;
    Alcotest.test_case "fast vote arrival is allocation-light" `Quick test_fast_vote_arrival;
    Alcotest.test_case "classic round allocates only its messages" `Quick test_classic_round;
    Alcotest.test_case "an epoch of held Phase2a's allocates nothing" `Quick test_epoch_free;
    Alcotest.test_case "routing inside a classic window allocates nothing" `Quick
      test_window_route;
    Alcotest.test_case "a settled vote allocates only its reply" `Quick test_settled_votes;
    Alcotest.test_case "acceptor steps alone, in words per step" `Quick test_acceptor_steps;
    Alcotest.test_case "a vote step on a warm decision allocates nothing" `Quick
      test_decision_vote;
    Alcotest.test_case "a non-deciding leader ack allocates nothing" `Quick test_leader_ack;
    Alcotest.test_case "rng draws allocate only their return" `Quick test_rng_draws;
    Alcotest.test_case "small applied-set insert is O(log n)" `Quick test_small_applied_insert;
    Alcotest.test_case "hot-record visibility is O(1)" `Quick test_hot_visibility_constant;
    Alcotest.test_case "a single-key fast commit folds nothing" `Quick test_single_key_commit;
    Alcotest.test_case "size_of allocates nothing" `Quick test_size_of_allocates_nothing;
    Alcotest.test_case "idle maintenance scan is constant" `Quick test_idle_scan_constant;
    Alcotest.test_case "idle maintenance tick allocates nothing" `Quick
      test_idle_tick_allocates_nothing;
    Alcotest.test_case "a fresh session read sends nothing" `Quick test_session_read_fresh;
    Alcotest.test_case "a co-located local read sends nothing" `Quick test_local_read_colocated;
    Alcotest.test_case "wire parser: get and set lines" `Quick test_parser_words;
    Alcotest.test_case "txids and VALUE lines format like Printf" `Quick
      test_number_formatting;
    Alcotest.test_case "a voided Visibility allocates only its log entry" `Quick
      test_void_visibility_one_entry;
    Alcotest.test_case "a span event with a node detail costs what a constant one does" `Quick
      test_span_node_detail;
  ]
