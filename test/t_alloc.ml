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

let test_mark_applied_log_n () =
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let store = Store.create schema in
  let n = Acceptor.create_node ~config:(Config.make ~replication:5 ()) store in
  let row = Store.ensure store key in
  row.Store.value <- Value.of_list [ ("stock", Value.Int 1_000_000) ];
  row.Store.exists <- true;
  let up = Update.Delta [ ("stock", -1) ] in
  let commit txid = ignore (Acceptor.visibility n txid key up true : Acceptor.visibility) in
  for i = 0 to 9_999 do
    commit (Printf.sprintf "t%05d" i)
  done;
  let fresh = Array.init 100 (fun i -> Printf.sprintf "u%05d" i) in
  let w = words (fun () -> Array.iter commit fresh) in
  (* The set marks a committed transaction in a txid table once it holds
     32 entries, so the insert costs a bucket and the delta's new row
     value, not the O(log n) path a balanced-tree insert copies (about
     log2(10_100) = 14 nodes of 6 words).  Copying the set would cost
     tens of thousands. *)
  let per_call = w /. 100.0 in
  if per_call > 200.0 then Alcotest.failf "a committed visibility allocated %.0f words" per_call;
  let again = words (fun () -> commit fresh.(0)) in
  Alcotest.(check (float 0.0)) "re-marking allocates nothing" 0.0 again

(* The same insert through a storage node, on a record whose set holds
   10,000 entries and so lives in a txid table: a committed visibility
   costs a bucket and the delta's store apply, however long the record's
   history.  As a map the set path-copied a branch per visibility, 110
   words in all. *)
let test_hot_visibility_constant () =
  let w = per_op Probe.visibility_hot_key in
  if w > 16.0 then Alcotest.failf "a hot-record visibility allocated %.2f words" w

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
   (the coordinator's decide, 4.2 words, and 3-key submit, 106.8: the
   three keys share their five replicas, so the proposals leave as one
   Batch record, a 3-word block over three list cells, that all five
   replicas receive). *)
let test_no_consumer () =
  let ceiling name limit w =
    if w > limit then Alcotest.failf "%s allocated %.2f words (ceiling %.2f)" name w limit
  in
  let vote, vis = node_words `None in
  ceiling "coordinator decide" 4.5 (decide_words `None);
  ceiling "coordinator submit of 3 keys" 112.0 (submit_words `None);
  ceiling "storage-node fast vote" 17.08 vote;
  ceiling "storage-node visibility" 30.2 vis

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
   and the two messages are 34 words; finding the round, counting its
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
  let round prefix i =
    let k = Key.make ~table:"item" ~id:(string_of_int i) in
    let txid = Printf.sprintf "%s%03d" prefix i in
    let w = { Woption.txid; key = k; update; write_set = [ k ]; coordinator = 9 } in
    let ack = Messages.Phase2b_master { key = k; txid; ballot; ok = true } in
    [| (9, Messages.Propose { woption = w; route = `Classic }); (1, ack); (2, ack) |]
  in
  let run msgs = Array.iter (Array.iter (fun (src, m) -> s.Helpers.deliver ~src m)) msgs in
  (* The first round on a record creates its acceptor and master state. *)
  run (Array.init n (round "warm"));
  let rounds = Array.init n (round "c") in
  let per_round = words (fun () -> run rounds) /. Float.of_int n in
  Alcotest.(check int) "every round learned" (2 * n)
    (Mdcc_obs.Registry.counter (Mdcc_obs.Obs.registry obs) "classic_learned");
  if per_round > 48.0 then Alcotest.failf "a classic round allocated %.1f words" per_round

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
   vote pool: ROADMAP item 5's acceptor line.  A fast vote and a classic
   Phase 2a vote allocate nothing (the verdicts are constants and the
   votes come from the pool); a committed Visibility allocates its
   applied-set insert and the delta's new row value, 20 words.  A Phase
   1a promise allocates the bucket of its promise mark, 4 words, in a
   table a first promise on every record has grown; the master's
   recovered window allocates nothing. *)
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
  let window (w : Woption.t) =
    Acceptor.recovered_window (Acceptor.record n w.Woption.key) ~classic_until:5
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
  let recovered_window = per_step window classic_opts in
  Alcotest.(check (float 0.0)) "words per fast vote" 0.0 vote;
  Alcotest.(check (float 0.0)) "words per classic vote" 0.0 classic_vote;
  if visibility > 20.0 then
    Alcotest.failf "a committed visibility allocated %.2f words (ceiling 20)" visibility;
  if phase1a > 4.0 then
    Alcotest.failf "a Phase 1a promise allocated %.2f words (ceiling 4)" phase1a;
  Alcotest.(check (float 0.0)) "words per recovered window" 0.0 recovered_window

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

let suite =
  [
    Alcotest.test_case "no consumer: decide, vote, visibility" `Quick test_no_consumer;
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
    Alcotest.test_case "routing inside a classic window allocates nothing" `Quick
      test_window_route;
    Alcotest.test_case "a settled vote allocates only its reply" `Quick test_settled_votes;
    Alcotest.test_case "acceptor steps alone, in words per step" `Quick test_acceptor_steps;
    Alcotest.test_case "rng draws allocate only their return" `Quick test_rng_draws;
    Alcotest.test_case "mark_applied on 10k entries is O(log n)" `Quick test_mark_applied_log_n;
    Alcotest.test_case "hot-record visibility is O(1)" `Quick test_hot_visibility_constant;
    Alcotest.test_case "a single-key fast commit folds nothing" `Quick test_single_key_commit;
    Alcotest.test_case "size_of allocates nothing" `Quick test_size_of_allocates_nothing;
    Alcotest.test_case "idle maintenance scan is constant" `Quick test_idle_scan_constant;
    Alcotest.test_case "idle maintenance tick allocates nothing" `Quick
      test_idle_tick_allocates_nothing;
    Alcotest.test_case "a fresh session read sends nothing" `Quick test_session_read_fresh;
    Alcotest.test_case "wire parser: get and set lines" `Quick test_parser_words;
    Alcotest.test_case "txids and VALUE lines format like Printf" `Quick
      test_number_formatting;
  ]
