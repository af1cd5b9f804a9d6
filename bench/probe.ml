module Engine = Mdcc_sim.Engine
module Event_queue = Mdcc_sim.Event_queue
module Network = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Rng = Mdcc_util.Rng
module Obs = Mdcc_obs.Obs
module Loop = Mdcc_runtime_unix.Loop
module Key = Mdcc_storage.Key
module Schema = Mdcc_storage.Schema
module Txn = Mdcc_storage.Txn
module Update = Mdcc_storage.Update
module Value = Mdcc_storage.Value
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator
module Ctx = Mdcc_core.Ctx
module Event = Mdcc_core.Event
module Messages = Mdcc_core.Messages
module Runtime = Mdcc_core.Runtime
module Session = Mdcc_core.Session
module Storage_node = Mdcc_core.Storage_node
module Woption = Mdcc_core.Woption
module History = Mdcc_core.History
module Nemesis = Mdcc_chaos.Nemesis
module Runner = Mdcc_chaos.Runner

type t = { name : string; ops : int; setup : unit -> unit -> unit }

type sample = { wall_s : float; minor_words_per_op : float }

let run p =
  let measured = p.setup () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  measured ();
  let wall_s = Unix.gettimeofday () -. t0 in
  let words = Gc.minor_words () -. w0 in
  { wall_s; minor_words_per_op = words /. Float.of_int p.ops }

let probe name ops setup = { name; ops; setup }

let check name what ~got ~want =
  if got <> want then failwith (Printf.sprintf "%s: %s %d, expected %d" name what got want)

let item_schema () = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ]

let item i = Key.make ~table:"item" ~id:(string_of_int i)

(* The option a Visibility names: transaction [txid]'s [update] of [key]. *)
let option_of ~txid ~key update =
  { Woption.txid; key; update; write_set = [ key ]; coordinator = 1 }

(* ------------------------------------------------------------------ *)
(* The simulator                                                       *)
(* ------------------------------------------------------------------ *)

let queue_push_pop ~ops =
  probe "queue_push_pop" ops (fun () ->
      let q = Event_queue.create () in
      let rng = Rng.create 42 in
      let n = ops / 2 in
      let ats = Array.init n (fun _ -> Rng.float rng 1_000_000.0) in
      let now = { Event_queue.f = 0.0 } in
      fun () ->
        for i = 0 to n - 1 do
          ignore (Event_queue.push q ~at:ats.(i) ~seq:i ignore)
        done;
        for _ = 1 to n do
          ignore (Event_queue.pop_before q ~limit:Float.infinity ~now)
        done)

(* Push N + cancel N/2 + pop N/2 ~= ops individual operations. *)
let queue_cancel ~ops =
  probe "queue_cancel" ops (fun () ->
      let q = Event_queue.create () in
      let rng = Rng.create 43 in
      let n = ops / 3 in
      let ats = Array.init n (fun _ -> Rng.float rng 1_000_000.0) in
      let now = { Event_queue.f = 0.0 } in
      fun () ->
        let handles = Array.init n (fun i -> Event_queue.push q ~at:ats.(i) ~seq:i ignore) in
        for i = 0 to n - 1 do
          if i land 1 = 0 then Event_queue.cancel q handles.(i)
        done;
        while
          not (Event_queue.is_dummy (Event_queue.pop_before q ~limit:Float.infinity ~now))
        do
          ()
        done)

let engine_dispatch ~ops =
  probe "engine_dispatch" ops (fun () ->
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
      fun () -> Engine.run engine)

type Network.payload += Ping

(* Four nodes in two DCs bounce every delivery back to its sender until a
   volley's budget is spent; eight chains keep the heap non-trivial, so a
   volley of [n] delivers [n + 7] messages.  [runtime ()] gives the
   transport's [register], [send] and [drain], which runs deliveries while
   its argument says some are due.  A warm-up volley fills the message
   pool before the measured one. *)
let ping_pong name ~ops ~runtime ball =
  probe name ops (fun () ->
      let register, send, drain = runtime () in
      let delivered = ref 0 and budget = ref 0 in
      for node = 0 to 3 do
        register node (fun ~src payload ->
            incr delivered;
            if !delivered < !budget then send ~src:node ~dst:src payload)
      done;
      let due () = !delivered < !budget + 7 in
      let volley n =
        let before = !delivered in
        budget := before + n;
        for i = 0 to 7 do
          send ~src:(i land 3) ~dst:(i land 3 lxor 2) ball
        done;
        drain due;
        check name "messages delivered" ~got:(!delivered - before) ~want:(n + 7)
      in
      volley 1_000;
      fun () -> volley ops)

(* [Engine.step] rather than [Engine.run], whose profiler bracket is a
   closure per call. *)
let network_send ~ops =
  ping_pong "network_send" ~ops Ping ~runtime:(fun () ->
      let engine = Engine.create ~seed:11 in
      let topo =
        Topology.make ~dc_names:[| "a"; "b" |]
          ~rtt:[| [| 0.0; 20.0 |]; [| 20.0; 0.0 |] |]
          ~nodes_per_dc:2 ()
      in
      let net = Network.create engine topo () in
      let drain _ =
        while Engine.step engine do
          ()
        done
      in
      (Network.register net, Network.send net, drain))

let loop_send ~ops =
  let ball =
    Messages.Phase1a { key = Key.make ~table:"item" ~id:"ball"; ballot = Mdcc_paxos.Ballot.initial_fast }
  in
  ping_pong "loop_send" ~ops ball ~runtime:(fun () ->
      let lp = Loop.create ~seed:11 () in
      let rt = Loop.runtime lp in
      let w_on_send, w_on_deliver = Obs.traffic_meter (Obs.create ()) ~nodes:4 in
      Loop.set_meter lp { Loop.w_size = Messages.size_of; w_on_send; w_on_deliver };
      let drain due =
        while due () do
          Loop.poll lp ~max_wait_ms:0.0
        done
      in
      (Runtime.register rt, Runtime.send rt, drain))

let rng_lognormal ~ops =
  probe "rng_lognormal" ops (fun () ->
      let rng = Rng.create 17 in
      fun () ->
        for _ = 1 to ops do
          ignore (Sys.opaque_identity (Rng.lognormal rng ~mu:0.0 ~sigma:0.05))
        done)

(* ------------------------------------------------------------------ *)
(* The storage node                                                    *)
(* ------------------------------------------------------------------ *)

type bare = {
  runtime : Runtime.t;
  node : Storage_node.t;
  deliver : src:int -> Network.payload -> unit;
  clock : float ref;
  fire : unit -> unit;  (** runs the oldest armed timer *)
  config : Config.t;
}

(* A storage node (replication 3, the only replica and master of every
   key) on a runtime whose sends go nowhere and whose timers wait in a
   queue for [fire], so a probe measures the node's own handlers and not
   the simulator. *)
let bare_node () =
  let handler = ref (fun ~src:_ _ -> ()) and timers = Queue.create () and clock = ref 0.0 in
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
  let node =
    Storage_node.create ~runtime ~config ~node_id:0 ~schema:(item_schema ())
      ~replicas:(fun _ -> [ 0 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  { runtime; node; deliver = !handler; clock; fire = (fun () -> (Queue.pop timers) ()); config }

(* 2,000 visibilities of [committed], one at a time, on a record that
   already saw 10,000. *)
let visibility_section name ~committed =
  let ops = 2_000 in
  probe name ops (fun () ->
      let b = bare_node () in
      let key = Key.make ~table:"item" ~id:"hot" in
      let visibility txid =
        Messages.Visibility
          { woption = option_of ~txid ~key (Update.Delta [ ("stock", -1) ]); committed }
      in
      for i = 0 to 9_999 do
        b.deliver ~src:9 (visibility (Printf.sprintf "a%06d" i))
      done;
      let msgs = Array.init ops (fun i -> visibility (Printf.sprintf "b%06d" i)) in
      fun () -> Array.iter (b.deliver ~src:9) msgs)

let visibility_hot_key = visibility_section "visibility_hot_key" ~committed:true

let visibility_void_hot_key = visibility_section "visibility_void_hot_key" ~committed:false

let dangling_scan_idle ~scans =
  let records = 10_000 and name = "dangling_scan_idle" in
  probe name scans (fun () ->
      let b = bare_node () in
      for i = 0 to records - 1 do
        let key = item i in
        b.deliver ~src:9
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
      b.clock := b.config.Config.txn_timeout /. 2.0;
      Storage_node.start_maintenance b.node;
      (* Every option is young, so the warm-up scan recovers nothing. *)
      b.fire ();
      check name "pending options" ~got:(Storage_node.pending_options b.node) ~want:records;
      fun () ->
        for _ = 1 to scans do
          b.fire ()
        done)

let maintenance_tick_idle ~ops =
  let records = 10_000 and name = "maintenance_tick_idle" in
  probe name ops (fun () ->
      let engine = Engine.create ~seed:19 in
      let net =
        Network.create engine
          (Topology.make ~dc_names:[| "a" |] ~rtt:[| [| 0.0 |] |] ~nodes_per_dc:2 ())
          ()
      in
      let node =
        Storage_node.create ~runtime:(Runtime.of_network net)
          ~config:(Config.make ~replication:3 ())
          ~node_id:0 ~schema:(item_schema ())
          ~replicas:(fun _ -> [ 0 ])
          ~master_of:(fun _ -> 0)
          ()
      in
      Network.register net 1 (fun ~src:_ _ -> ());
      for i = 0 to records - 1 do
        Network.send net ~src:1 ~dst:0
          (Messages.Visibility
             {
               woption =
                 option_of ~txid:(Printf.sprintf "c%06d" i) ~key:(item i)
                   (Update.Delta [ ("stock", -1) ]);
               committed = true;
             })
      done;
      Engine.run engine;
      check name "pending options" ~got:(Storage_node.pending_options node) ~want:0;
      Storage_node.start_maintenance node;
      check name "armed events" ~got:(Engine.pending engine) ~want:1;
      fun () ->
        for _ = 1 to ops do
          ignore (Engine.step engine : bool)
        done)

let sim_node () =
  let engine = Engine.create ~seed:23 in
  let net =
    Network.create engine
      (Topology.make ~dc_names:[| "a" |] ~rtt:[| [| 0.0 |] |] ~nodes_per_dc:2 ())
      ()
  in
  let _node =
    Storage_node.create ~runtime:(Runtime.of_network net)
      ~config:(Config.make ~replication:5 ())
      ~node_id:0 ~schema:(item_schema ())
      ~replicas:(fun _ -> [ 0 ])
      ~master_of:(fun _ -> 1)
      ()
  in
  Network.register net 1 (fun ~src:_ _ -> ());
  fun msgs ->
    for i = 0 to Array.length msgs - 1 do
      Network.send net ~src:1 ~dst:0 msgs.(i)
    done;
    while Engine.step engine do
      ()
    done

let fast_vote =
  let votes = 20_000 and records = 1_000 in
  probe "fast_vote" votes (fun () ->
      let deliver = sim_node () in
      let update = Update.Delta [ ("stock", -1) ] in
      let keys = Array.init records item in
      let vote i =
        let key = keys.(i mod records) and txid = Printf.sprintf "v%06d" i in
        let woption = option_of ~txid ~key update in
        [|
          [| Messages.Propose { woption; route = `Fast } |];
          [| Messages.Visibility { woption; committed = true } |];
        |]
      in
      let run = Array.iter (Array.iter deliver) in
      (* Every record's first vote creates its state. *)
      run (Array.init records (fun i -> vote (votes + i)));
      let msgs = Array.init votes vote in
      fun () -> run msgs)

(* ------------------------------------------------------------------ *)
(* Events and commits                                                  *)
(* ------------------------------------------------------------------ *)

let span_event =
  let ops = 100_000 and txns = 1_000 in
  probe "span_event" ops (fun () ->
      let obs = Obs.create ~spans:true () in
      let stream = Ctx.stream (Ctx.make ~obs ()) (bare_node ()).runtime ~node:3 in
      let value = Value.of_list [ ("stock", Value.Int 7) ] in
      let events =
        Array.init txns (fun i ->
            let txid = Printf.sprintf "t%05d" i and key = item i in
            Option.iter (fun sp -> Mdcc_obs.Span.begin_txn sp ~txid ~at:0.0) (Obs.spans obs);
            ( Event.Voted { txid; key; vote = Event.Fast None },
              Event.Applied { txid; key; version = 2; value; wrote = true } ))
      in
      fun () ->
        for i = 0 to (ops / 2) - 1 do
          let voted, applied = events.(i mod txns) in
          Ctx.emit stream voted;
          Ctx.emit stream applied
        done)

(* A cluster in [mode] with 300 loaded items, its DC 0 app server and
   1,000 [keys]-key delta transactions.  The cluster reports to its own
   registry, so the counters it creates on first use are its own whatever
   ran before it. *)
let commits = 1_000

let commit_fixture ?master_dc_of ~keys ~mode () =
  let items = 300 in
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
    Cluster.create ~engine ~spec:(Cluster.Spec.make ?master_dc_of ())
      ~config:(Config.make ~mode ~replication:5 ())
      ~ctx:(Ctx.make ~obs:(Obs.create ()) ())
      ~schema ()
  in
  Cluster.load cluster
    (List.init items (fun i -> (item i, Value.of_list [ ("stock", Value.Int 1_000_000) ])));
  let txns =
    Array.init commits (fun i ->
        Txn.make ~id:(Printf.sprintf "t%05d" i)
          ~updates:
            (List.init keys (fun j ->
                 (item (((keys * i) + j) mod items), Update.Delta [ ("stock", -1) ]))))
  in
  (engine, Cluster.coordinator cluster ~dc:0 ~rank:0, txns)

(* The fixture's commits, submitted [together] at a time and each group
   run to its end. *)
let commit_section ?(keys = 3) ?(together = 1) ?master_dc_of name ~mode =
  probe name commits (fun () ->
      let engine, coord, txns = commit_fixture ?master_dc_of ~keys ~mode () in
      let committed = ref 0 in
      let on_outcome = function Txn.Committed -> incr committed | Txn.Aborted _ -> () in
      fun () ->
        Array.iteri
          (fun i txn ->
            Coordinator.submit coord txn on_outcome;
            if (i + 1) mod together = 0 || i = commits - 1 then Engine.run engine)
          txns;
        check name "commits" ~got:!committed ~want:commits)

let fast_path_commit = commit_section "fast_path_commit" ~mode:Config.Full

let fast_commit_one_key = commit_section ~keys:1 "fast_commit_one_key" ~mode:Config.Full

let classic_commit = commit_section "classic_commit" ~mode:Config.Multi

let classic_contended =
  commit_section ~keys:1 ~together:8
    ~master_dc_of:(fun _ -> 0)
    "classic_contended" ~mode:Config.Multi

(* The fixture's fast-path commits by one closed-loop client: each is
   submitted from the previous one's callback, at the instant it was
   decided, so its proposals leave folded with that one's Visibilities. *)
let closed_loop_commit =
  let name = "closed_loop_commit" in
  probe name commits (fun () ->
      let engine, coord, txns = commit_fixture ~keys:3 ~mode:Config.Full () in
      let next = ref 0 and committed = ref 0 in
      let rec on_outcome outcome =
        (match outcome with Txn.Committed -> incr committed | Txn.Aborted _ -> ());
        submit_next ()
      and submit_next () =
        if !next < commits then begin
          incr next;
          Coordinator.submit coord txns.(!next - 1) on_outcome
        end
      in
      fun () ->
        submit_next ();
        Engine.run engine;
        check name "commits" ~got:!committed ~want:commits)

(* ------------------------------------------------------------------ *)
(* Session reads                                                       *)
(* ------------------------------------------------------------------ *)

(* Session reads of 1,000 loaded rows at DC 0's app server, in rounds of
   one read per row, each round run to its end.  A warm-up round sets
   every watermark to the row's version, so each measured read finds its
   co-located row fresh and sends nothing. *)
let session_read_fresh ~reads =
  let name = "session_read_fresh" and items = 1_000 in
  probe name reads (fun () ->
      let engine = Engine.create ~seed:31 in
      let obs = Obs.create () in
      let cluster =
        Cluster.create ~engine ~spec:Cluster.Spec.default
          ~config:(Config.make ~replication:5 ())
          ~ctx:(Ctx.make ~obs ()) ~schema:(item_schema ()) ()
      in
      Cluster.load cluster
        (List.init items (fun i -> (item i, Value.of_list [ ("stock", Value.Int 7) ])));
      let session = Session.create (Cluster.coordinator cluster ~dc:0 ~rank:0) in
      let keys = Array.init items item and answered = ref 0 in
      let on_row = function Some (_, 1) -> incr answered | Some _ | None -> () in
      let round n =
        for i = 0 to n - 1 do
          Session.read session keys.(i) on_row
        done;
        Engine.run engine
      in
      round items;
      check name "warm-up answers" ~got:!answered ~want:items;
      let stats = Network.stats (Cluster.network cluster) in
      let colocated () = Mdcc_obs.Registry.counter (Obs.registry obs) "session_read_colocated" in
      let sent = stats.Network.sent and colocated0 = colocated () in
      answered := 0;
      fun () ->
        for _ = 1 to reads / items do
          round items
        done;
        round (reads mod items);
        check name "answers" ~got:!answered ~want:reads;
        check name "co-located answers" ~got:(colocated () - colocated0) ~want:reads;
        check name "messages sent" ~got:(stats.Network.sent - sent) ~want:0)

(* ------------------------------------------------------------------ *)
(* The chaos run                                                       *)
(* ------------------------------------------------------------------ *)

let chaos_spec = Runner.spec ~seed:1 ~scenario:Nemesis.clean ()

let chaos_run =
  let runs = 20 and name = "chaos_run" in
  probe name runs (fun () ->
      let run () =
        let r = Runner.run chaos_spec in
        if not (Runner.ok r) then failwith (name ^ ": the clean run reported a violation");
        check name "transactions decided" ~got:(r.Runner.r_committed + r.Runner.r_aborted)
          ~want:chaos_spec.Runner.txns
      in
      run ();
      fun () ->
        for _ = 1 to runs do
          run ()
        done)

let chaos_history () =
  let engine = Engine.create ~seed:1 and history = History.create () in
  let cluster =
    Runner.deploy chaos_spec ~engine ~ctx:(Ctx.make ~history ~obs:(Obs.create ~spans:true ()) ())
  in
  let items = chaos_spec.Runner.items in
  Cluster.load cluster (List.init items (fun i -> (Runner.item i, Runner.item_row Runner.stock)));
  let committed = ref 0 in
  let on_outcome = function Txn.Committed -> incr committed | Txn.Aborted _ -> () in
  for i = 0 to chaos_spec.Runner.txns - 1 do
    let dc = i mod 5 and id = Printf.sprintf "t%02d" i in
    let key = Runner.item (i mod items) and other = Runner.item ((i + 1) mod items) in
    let txn =
      if i land 1 = 0 then Txn.make ~id ~updates:[ (key, Update.Delta [ ("stock", -1) ]) ]
      else begin
        let read k = Option.get (Cluster.peek cluster ~dc k) in
        let value, version = read key in
        Txn.serializable ~id
          ~reads:[ (key, version); (other, snd (read other)) ]
          ~updates:[ (key, Update.Physical { vread = version; value }) ]
      end
    in
    Coordinator.submit (Cluster.coordinator cluster ~dc ~rank:0) txn on_outcome;
    Engine.run engine
  done;
  check "chaos_history" "commits" ~got:!committed ~want:chaos_spec.Runner.txns;
  history

(* ------------------------------------------------------------------ *)
(* The wire parser                                                     *)
(* ------------------------------------------------------------------ *)

let rec drain_parser p = match Mdcc_wire.Parser.next p with Some _ -> drain_parser p | None -> ()

let parse_in_chunks stream =
  let chunk = 65_536 and len = Bytes.length stream and p = Mdcc_wire.Parser.create () in
  fun () ->
    let off = ref 0 in
    while !off < len do
      let n = Int.min chunk (len - !off) in
      Mdcc_wire.Parser.feed p stream !off n;
      drain_parser p;
      off := !off + n
    done

let wire_parse =
  let requests = 100_000 in
  probe "wire_parse" requests (fun () ->
      let rng = Rng.create 29 and b = Buffer.create (requests * 32) in
      let value = String.make 64 'v' in
      for _ = 1 to requests do
        let key = Printf.sprintf "k%06d" (Rng.int rng 500) in
        if Rng.int rng 5 = 0 then Printf.bprintf b "set %s 0 0 64\r\n%s\r\n" key value
        else Printf.bprintf b "get %s\r\n" key
      done;
      parse_in_chunks (Buffer.to_bytes b))

let ops = 300_000

let all =
  [
    queue_push_pop ~ops;
    queue_cancel ~ops;
    engine_dispatch ~ops;
    network_send ~ops;
    loop_send ~ops;
    visibility_hot_key;
    visibility_void_hot_key;
    dangling_scan_idle ~scans:100;
    maintenance_tick_idle ~ops;
    fast_vote;
    span_event;
    fast_path_commit;
    classic_commit;
    classic_contended;
    closed_loop_commit;
    session_read_fresh ~reads:ops;
    rng_lognormal ~ops;
    wire_parse;
    chaos_run;
  ]
