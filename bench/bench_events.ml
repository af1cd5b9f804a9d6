(* Micro-benchmark of the simulation hot loop (raw Event_queue ops,
   Engine.run dispatch, Network.send delivery throughput), of the socket
   loop's message path, and of two storage-node paths whose cost grows
   with the node's state.

     dune exec bench/bench_events.exe -- --out BENCH_events.json

   Fifteen sections, each timed in isolation:

   - queue_push_pop:   push N events at pseudo-random times, pop them all
   - queue_cancel:     push N, cancel every other handle (exercising the
                       compaction path), drain the rest
   - engine_dispatch:  K self-rescheduling timers executing N events total
                       through Engine.run — the sweep's inner loop
   - network_send:     ping-pong handlers over a 2-DC topology delivering
                       N messages end to end (send + schedule + deliver);
                       a message in flight is a pooled heap record and the
                       jitter draw writes into a cell, so the message path
                       allocates nothing once the pool is warm
   - loop_send:        the same ping-pong through the socket runtime:
                       Runtime.send on Loop.runtime, delivered by
                       Loop.poll ~max_wait_ms:0.0, with the traffic meter
                       on (one op = one message)
   - visibility_hot_key: 2,000 committed visibilities, one at a time, on a
                       record whose applied set already holds 10,000
                       entries (one op = one visibility)
   - visibility_void_hot_key: 2,000 voided visibilities, one at a time, on
                       a record that already holds 10,000 voided outcomes
                       (one op = one visibility): the abort path's cost
                       must not grow with the record's history
   - dangling_scan_idle: 100 dangling-transaction scans over 10,000
                       records, each with one pending option younger than
                       the transaction timeout (one op = one scan): a walk
                       that finds nothing stale allocates nothing per
                       record
   - maintenance_tick_idle: N maintenance ticks of a storage node on the
                       simulator's runtime whose 10,000 records each saw
                       one committed option and hold none pending (one op
                       = one tick): the tick re-arms its own engine event
                       and the idle node skips the scan, so it allocates
                       nothing
   - fast_vote:        20,000 fast proposals, each followed by its
                       committed Visibility, on 1,000 warm records of one
                       storage node over Runtime.of_network (one op = one
                       vote): a vote reuses a pooled record and stamps its
                       time in place, so it costs its reply and the
                       visibility's applied-set insert
   - span_event:       protocol events through Ctx.emit into a span store,
                       alternately a fast Voted and an Applied, on spans
                       already open (one op = one event)
   - fast_path_commit: 1,000 TPC-W-style transactions (three commutative
                       stock decrements) committed one after another through
                       Cluster.create on the simulated five-region network:
                       proposals, fast votes, decision and visibility, with
                       the traffic meter on (one op = one commit)
   - classic_commit:   the same 1,000 transactions through stable masters
                       (Config.Multi): a classic proposal to each key's
                       master, its Phase2a round with the master's own
                       vote, the acks, Learned and visibility (one op =
                       one commit)
   - rng_lognormal:    N latency-jitter draws (one op = one draw)
   - wire_parse:       100,000 wire requests, 80 % [get] and 20 % [set]
                       of 64-byte values over 500 keys, fed to one
                       Parser in the socket loop's 64 KiB read chunks and
                       drained (one op = one request): a request costs
                       the key, data and request values it hands on

   Wall-clock throughput (ops/s) is machine-dependent and noisy on a
   shared container; the per-op minor-allocation figure (minor_words/op,
   from Gc.minor_words) is deterministic for a given build and is the
   number the hot-loop allocation-purge work is judged by.  The --out
   document is an Envelope (bench "events", one section per row above);
   CI gates it with bench_check against BENCH_events.json. *)

module Engine = Mdcc_sim.Engine
module Event_queue = Mdcc_sim.Event_queue
module Network = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Rng = Mdcc_util.Rng
module Json = Mdcc_obs.Json
module Envelope = Mdcc_bench.Envelope
module Key = Mdcc_storage.Key
module Schema = Mdcc_storage.Schema
module Update = Mdcc_storage.Update
module Value = Mdcc_storage.Value
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator
module Txn = Mdcc_storage.Txn
module Messages = Mdcc_core.Messages
module Runtime = Mdcc_core.Runtime
module Storage_node = Mdcc_core.Storage_node
module Woption = Mdcc_core.Woption
module Ctx = Mdcc_core.Ctx
module Event = Mdcc_core.Event

type section = {
  s_name : string;
  s_ops : int;
  s_wall_s : float;
  s_ops_per_s : float;
  s_minor_words_per_op : float;
}

let time_section name ops f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  {
    s_name = name;
    s_ops = ops;
    s_wall_s = wall_s;
    s_ops_per_s = Float.of_int ops /. wall_s;
    s_minor_words_per_op = words /. Float.of_int ops;
  }

(* ------------------------------------------------------------------ *)
(* Sections                                                            *)
(* ------------------------------------------------------------------ *)

let queue_push_pop ~ops =
  let q = Event_queue.create () in
  let rng = Rng.create 42 in
  let n = ops / 2 in
  let ats = Array.init n (fun _ -> Rng.float rng 1_000_000.0) in
  let now = { Event_queue.f = 0.0 } in
  time_section "queue_push_pop" ops (fun () ->
      for i = 0 to n - 1 do
        ignore (Event_queue.push q ~at:ats.(i) ~seq:i ignore)
      done;
      for _ = 1 to n do
        ignore (Event_queue.pop_before q ~limit:Float.infinity ~now)
      done)

let queue_cancel ~ops =
  let q = Event_queue.create () in
  let rng = Rng.create 43 in
  let n = ops / 3 in
  let ats = Array.init n (fun _ -> Rng.float rng 1_000_000.0) in
  let now = { Event_queue.f = 0.0 } in
  (* push N + cancel N/2 + pop N/2 ~= ops individual operations *)
  time_section "queue_cancel" ops (fun () ->
      let handles =
        Array.init n (fun i -> Event_queue.push q ~at:ats.(i) ~seq:i ignore)
      in
      for i = 0 to n - 1 do
        if i land 1 = 0 then Event_queue.cancel q handles.(i)
      done;
      while not (Event_queue.is_dummy (Event_queue.pop_before q ~limit:Float.infinity ~now)) do
        ()
      done)

let engine_dispatch ~ops =
  let engine = Engine.create ~seed:7 in
  let timers = 64 in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    if !fired + timers <= ops then ignore (Engine.schedule engine ~after:1.0 tick)
  in
  for _ = 1 to timers do
    ignore (Engine.schedule engine ~after:1.0 tick)
  done;
  time_section "engine_dispatch" ops (fun () -> Engine.run engine)

type Network.payload += Ping

let network_send ~ops =
  let engine = Engine.create ~seed:11 in
  let topo =
    Topology.make ~dc_names:[| "a"; "b" |]
      ~rtt:[| [| 0.0; 20.0 |]; [| 20.0; 0.0 |] |]
      ~nodes_per_dc:2 ()
  in
  let net = Network.create engine topo () in
  let delivered = ref 0 in
  (* Ping-pong: every delivery sends one message back until the budget is
     spent, so the section measures send + schedule + deliver end to end. *)
  for node = 0 to 3 do
    Network.register net node (fun ~src payload ->
        incr delivered;
        if !delivered < ops then Network.send net ~src:node ~dst:src payload)
  done;
  (* 8 concurrent ping-pong chains keep the heap non-trivial. *)
  let seed_msgs = 8 in
  time_section "network_send" ops (fun () ->
      for i = 0 to seed_msgs - 1 do
        Network.send net ~src:(i land 3) ~dst:(i land 3 lxor 2) Ping
      done;
      Engine.run engine)

let loop_send ~ops =
  let lp = Mdcc_runtime_unix.Loop.create ~seed:11 () in
  let rt = Mdcc_runtime_unix.Loop.runtime lp in
  let w_on_send, w_on_deliver = Mdcc_obs.Obs.traffic_meter (Mdcc_obs.Obs.create ()) ~nodes:4 in
  Mdcc_runtime_unix.Loop.set_meter lp
    { Mdcc_runtime_unix.Loop.w_size = Messages.size_of; w_on_send; w_on_deliver };
  let ball =
    Messages.Phase1a
      { key = Key.make ~table:"item" ~id:"ball"; ballot = Mdcc_paxos.Ballot.initial_fast }
  in
  let delivered = ref 0 in
  for node = 0 to 3 do
    Runtime.register rt node (fun ~src payload ->
        incr delivered;
        if !delivered < ops then Runtime.send rt ~src:node ~dst:src payload)
  done;
  time_section "loop_send" ops (fun () ->
      for i = 0 to 7 do
        Runtime.send rt ~src:(i land 3) ~dst:(i land 3 lxor 2) ball
      done;
      while !delivered < ops do
        Mdcc_runtime_unix.Loop.poll lp ~max_wait_ms:0.0
      done)

(* A storage node on a runtime whose sends go nowhere and whose timers are
   queued for the caller to fire, so a section measures the node's own
   handlers and not the simulator.  Returns the node's message handler. *)
let bare_node () =
  let handler = ref (fun ~src:_ _ -> ()) and timers = Queue.create () in
  let clock = ref 0.0 in
  let runtime =
    Runtime.make
      ~now:(fun () -> !clock)
      ~send:(fun ~src:_ ~dst:_ _ -> ())
      ~register:(fun _ h -> handler := h)
      ~set_timer:(fun ~after:_ f ->
        Queue.push f timers;
        ignore)
      ~spawn:(fun f -> f ())
      ~rng:(Rng.create 5) ~dc_of:(fun _ -> 0)
      ~trace:(fun ~tag:_ _ -> ())
      ~tracing:(fun () -> false)
      ()
  in
  let config = Config.make ~replication:3 () in
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let node =
    Storage_node.create ~runtime ~config ~node_id:0 ~schema
      ~replicas:(fun _ -> [ 0 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  (node, !handler, clock, timers, config)

let visibility_hot_key () =
  let ops = 2_000 in
  let _, deliver, _, _, _ = bare_node () in
  let key = Key.make ~table:"item" ~id:"hot" in
  let commit txid =
    Messages.Visibility { txid; key; update = Update.Delta [ ("stock", -1) ]; committed = true }
  in
  for i = 0 to 9_999 do
    deliver ~src:9 (commit (Printf.sprintf "a%06d" i))
  done;
  let msgs = Array.init ops (fun i -> commit (Printf.sprintf "b%06d" i)) in
  time_section "visibility_hot_key" ops (fun () -> Array.iter (deliver ~src:9) msgs)

let visibility_void_hot_key () =
  let ops = 2_000 in
  let _, deliver, _, _, _ = bare_node () in
  let key = Key.make ~table:"item" ~id:"hot" in
  let void txid =
    Messages.Visibility { txid; key; update = Update.Delta [ ("stock", -1) ]; committed = false }
  in
  for i = 0 to 9_999 do
    deliver ~src:9 (void (Printf.sprintf "a%06d" i))
  done;
  let msgs = Array.init ops (fun i -> void (Printf.sprintf "b%06d" i)) in
  time_section "visibility_void_hot_key" ops (fun () -> Array.iter (deliver ~src:9) msgs)

let dangling_scan_idle () =
  let scans = 100 and records = 10_000 in
  let node, deliver, clock, timers, config = bare_node () in
  for i = 0 to records - 1 do
    let key = Key.make ~table:"item" ~id:(string_of_int i) in
    deliver ~src:9
      (Messages.Propose
         {
           woption =
             {
               Woption.txid = Printf.sprintf "p%06d" i;
               key;
               update = Update.Insert Value.empty;
               write_set = [ key ];
               coordinator = 9;
             };
           route = `Fast;
         })
  done;
  clock := config.Config.txn_timeout /. 2.0;
  Storage_node.start_maintenance node;
  time_section "dangling_scan_idle" scans (fun () ->
      for _ = 1 to scans do
        (Queue.pop timers) ()
      done)

let maintenance_tick_idle ~ops =
  let records = 10_000 in
  let engine = Engine.create ~seed:19 in
  let net =
    Network.create engine
      (Topology.make ~dc_names:[| "a" |] ~rtt:[| [| 0.0 |] |] ~nodes_per_dc:2 ())
      ()
  in
  let node =
    Storage_node.create ~runtime:(Runtime.of_network net) ~config:(Config.make ~replication:3 ())
      ~node_id:0
      ~schema:(Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ])
      ~replicas:(fun _ -> [ 0 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  Network.register net 1 (fun ~src:_ _ -> ());
  for i = 0 to records - 1 do
    Network.send net ~src:1 ~dst:0
      (Messages.Visibility
         {
           txid = Printf.sprintf "c%06d" i;
           key = Key.make ~table:"item" ~id:(string_of_int i);
           update = Update.Delta [ ("stock", -1) ];
           committed = true;
         })
  done;
  Engine.run engine;
  if Storage_node.pending_options node <> 0 then failwith "maintenance_tick_idle: a pending option";
  Storage_node.start_maintenance node;
  time_section "maintenance_tick_idle" ops (fun () ->
      for _ = 1 to ops do
        ignore (Engine.step engine : bool)
      done)

let fast_vote () =
  let votes = 20_000 and records = 1_000 in
  let engine = Engine.create ~seed:23 in
  let net =
    Network.create engine
      (Topology.make ~dc_names:[| "a" |] ~rtt:[| [| 0.0 |] |] ~nodes_per_dc:2 ())
      ()
  in
  let _node =
    Storage_node.create ~runtime:(Runtime.of_network net) ~config:(Config.make ~replication:5 ())
      ~node_id:0
      ~schema:(Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ])
      ~replicas:(fun _ -> [ 0 ])
      ~master_of:(fun _ -> 1)
      ()
  in
  Network.register net 1 (fun ~src:_ _ -> ());
  let update = Update.Delta [ ("stock", -1) ] in
  let keys = Array.init records (fun i -> Key.make ~table:"item" ~id:(string_of_int i)) in
  let vote i =
    let key = keys.(i mod records) and txid = Printf.sprintf "v%06d" i in
    ( Messages.Propose
        {
          woption = { Woption.txid; key; update; write_set = [ key ]; coordinator = 1 };
          route = `Fast;
        },
      Messages.Visibility { txid; key; update; committed = true } )
  in
  let deliver msg =
    Network.send net ~src:1 ~dst:0 msg;
    while Engine.step engine do
      ()
    done
  in
  let run =
    Array.iter (fun (propose, visibility) ->
        deliver propose;
        deliver visibility)
  in
  (* Every record's first vote creates its state. *)
  run (Array.init records (fun i -> vote (votes + i)));
  let msgs = Array.init votes vote in
  time_section "fast_vote" votes (fun () -> run msgs)

let span_event () =
  let ops = 100_000 and txns = 1_000 in
  let runtime =
    Runtime.make
      ~now:(fun () -> 1.0)
      ~send:(fun ~src:_ ~dst:_ _ -> ())
      ~register:(fun _ _ -> ())
      ~set_timer:(fun ~after:_ _ -> ignore)
      ~spawn:(fun f -> f ())
      ~rng:(Rng.create 5) ~dc_of:(fun _ -> 0)
      ~trace:(fun ~tag:_ _ -> ())
      ~tracing:(fun () -> false)
      ()
  in
  let obs = Mdcc_obs.Obs.create ~spans:true () in
  let stream = Ctx.stream (Ctx.make ~obs ()) runtime ~node:3 in
  let value = Value.of_list [ ("stock", Value.Int 7) ] in
  let events =
    Array.init txns (fun i ->
        let txid = Printf.sprintf "t%05d" i
        and key = Key.make ~table:"item" ~id:(string_of_int i) in
        Option.iter (fun sp -> Mdcc_obs.Span.begin_txn sp ~txid ~at:0.0) (Mdcc_obs.Obs.spans obs);
        ( Event.Voted { txid; key; vote = Event.Fast None },
          Event.Applied { txid; key; version = 2; value; wrote = true } ))
  in
  time_section "span_event" ops (fun () ->
      for i = 0 to (ops / 2) - 1 do
        let voted, applied = events.(i mod txns) in
        Ctx.emit stream voted;
        Ctx.emit stream applied
      done)

(* 1,000 three-key delta commits, one after another, in [mode]. *)
let commit_section name ~mode =
  let commits = 1_000 and items = 300 in
  let engine = Engine.create ~seed:13 in
  let schema =
    Schema.create
      [
        {
          Schema.name = "item";
          bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = None } ];
          master_dc = 0;
        };
      ]
  in
  let cluster =
    Cluster.create ~engine ~spec:Cluster.Spec.default
      ~config:(Config.make ~mode ~replication:5 ())
      ~schema ()
  in
  let item i = Key.make ~table:"item" ~id:(string_of_int i) in
  Cluster.load cluster
    (List.init items (fun i -> (item i, Value.of_list [ ("stock", Value.Int 1_000_000) ])));
  let coord = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let txns =
    Array.init commits (fun i ->
        Txn.make ~id:(Printf.sprintf "t%05d" i)
          ~updates:
            (List.init 3 (fun j -> (item (((3 * i) + j) mod items), Update.Delta [ ("stock", -1) ]))))
  in
  let committed = ref 0 in
  let on_outcome = function Txn.Committed -> incr committed | Txn.Aborted _ -> () in
  let section =
    time_section name commits (fun () ->
        Array.iter
          (fun txn ->
            Coordinator.submit coord txn on_outcome;
            Engine.run engine)
          txns)
  in
  if !committed <> commits then
    failwith (Printf.sprintf "%s: %d of %d committed" name !committed commits);
  section

let fast_path_commit () = commit_section "fast_path_commit" ~mode:Config.Full

let classic_commit () = commit_section "classic_commit" ~mode:Config.Multi

let rng_lognormal ~ops =
  let rng = Rng.create 17 in
  time_section "rng_lognormal" ops (fun () ->
      for _ = 1 to ops do
        ignore (Sys.opaque_identity (Rng.lognormal rng ~mu:0.0 ~sigma:0.05))
      done)

let rec drain_parser p =
  match Mdcc_wire.Parser.next p with Some _ -> drain_parser p | None -> ()

let wire_parse () =
  let requests = 100_000 and chunk = 65_536 in
  let rng = Rng.create 29 and b = Buffer.create (requests * 32) in
  let value = String.make 64 'v' in
  for _ = 1 to requests do
    let key = Printf.sprintf "k%06d" (Rng.int rng 500) in
    if Rng.int rng 5 = 0 then Printf.bprintf b "set %s 0 0 64\r\n%s\r\n" key value
    else Printf.bprintf b "get %s\r\n" key
  done;
  let stream = Buffer.to_bytes b and p = Mdcc_wire.Parser.create () in
  time_section "wire_parse" requests (fun () ->
      let off = ref 0 in
      while !off < Bytes.length stream do
        let n = Stdlib.min chunk (Bytes.length stream - !off) in
        Mdcc_wire.Parser.feed p stream !off n;
        drain_parser p;
        off := !off + n
      done)

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let ops = 300_000

let bench ~out =
  Printf.printf "bench-events: %d ops per section\n%!" ops;
  let sections =
    [
      queue_push_pop ~ops;
      queue_cancel ~ops;
      engine_dispatch ~ops;
      network_send ~ops;
      loop_send ~ops;
      visibility_hot_key ();
      visibility_void_hot_key ();
      dangling_scan_idle ();
      maintenance_tick_idle ~ops;
      fast_vote ();
      span_event ();
      fast_path_commit ();
      classic_commit ();
      rng_lognormal ~ops;
      wire_parse ();
    ]
  in
  List.iter
    (fun s ->
      Printf.printf "  %-24s %8.3f s  %10.0f ops/s  %7.2f minor words/op\n" s.s_name
        s.s_wall_s s.s_ops_per_s s.s_minor_words_per_op)
    sections;
  Option.iter
    (fun path ->
      Envelope.write path ~bench:"events"
        ~config:[ ("ops", Json.Int ops) ]
        (List.map
           (fun s ->
             ( s.s_name,
               [
                 ("ops", Float.of_int s.s_ops);
                 ("wall_s", s.s_wall_s);
                 ("ops_per_s", s.s_ops_per_s);
                 ("minor_words_per_op", s.s_minor_words_per_op);
               ] ))
           sections);
      Printf.printf "  written: %s\n" path)
    out

open Cmdliner

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the measurement as a bench document (schema mdcc.bench.v2).")

let () =
  let doc =
    "micro-benchmark of the DES hot loop (event queue, dispatch, network send), of the \
     socket loop's message path, of the storage node's visibility, dangling-scan and idle \
     maintenance-tick paths, of a fast vote, of the span fold, of one fast-path and one classic \
     commit, of a latency-jitter draw and of the wire parser's request stream"
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench-events" ~doc)
      Term.(const (fun out -> bench ~out) $ out_arg)
  in
  exit (Cmd.eval cmd)
