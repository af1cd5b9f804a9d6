(* Micro-benchmark of the simulation hot loop (raw Event_queue ops,
   Engine.run dispatch, Network.send delivery throughput) and of two
   storage-node paths whose cost grows with the node's state.

     dune exec bench/bench_events.exe -- --out BENCH_events.json

   Eight sections, each timed in isolation:

   - queue_push_pop:   push N events at pseudo-random times, pop them all
   - queue_cancel:     push N, cancel every other handle (exercising the
                       compaction path), drain the rest
   - engine_dispatch:  K self-rescheduling timers executing N events total
                       through Engine.run — the sweep's inner loop
   - network_send:     ping-pong handlers over a 2-DC topology delivering
                       N messages end to end (send + schedule + deliver)
   - visibility_hot_key: 2,000 committed visibilities, one at a time, on a
                       record whose applied set already holds 10,000
                       entries (one op = one visibility)
   - dangling_scan_idle: 100 dangling-transaction scans over 10,000
                       records, each with one pending option younger than
                       the transaction timeout (one op = one scan)
   - fast_path_commit: 1,000 TPC-W-style transactions (three commutative
                       stock decrements) committed one after another through
                       Cluster.create on the simulated five-region network:
                       proposals, fast votes, decision and visibility, with
                       the traffic meter on (one op = one commit)
   - rng_lognormal:    N latency-jitter draws (one op = one draw)

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

let fast_path_commit () =
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
    Cluster.create ~engine ~spec:Cluster.Spec.default ~config:(Config.make ~replication:5 ())
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
    time_section "fast_path_commit" commits (fun () ->
        Array.iter
          (fun txn ->
            Coordinator.submit coord txn on_outcome;
            Engine.run engine)
          txns)
  in
  if !committed <> commits then
    failwith (Printf.sprintf "fast_path_commit: %d of %d committed" !committed commits);
  section

let rng_lognormal ~ops =
  let rng = Rng.create 17 in
  time_section "rng_lognormal" ops (fun () ->
      for _ = 1 to ops do
        ignore (Sys.opaque_identity (Rng.lognormal rng ~mu:0.0 ~sigma:0.05))
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
      visibility_hot_key ();
      dangling_scan_idle ();
      fast_path_commit ();
      rng_lognormal ~ops;
    ]
  in
  List.iter
    (fun s ->
      Printf.printf "  %-18s %8.3f s  %10.0f ops/s  %7.2f minor words/op\n" s.s_name
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
     storage node's visibility and dangling-scan paths, of one fast-path commit and of a \
     latency-jitter draw"
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench-events" ~doc)
      Term.(const (fun out -> bench ~out) $ out_arg)
  in
  exit (Cmd.eval cmd)
