(* Tests of the discrete-event simulator: heap, engine, topology, network. *)

module Event_queue = Mdcc_sim.Event_queue
module Engine = Mdcc_sim.Engine
module Topology = Mdcc_sim.Topology
module Net = Mdcc_sim.Network

(* A popped event's sequence number, and a popped timer's body. *)
let seq_of = function Event_queue.Thunk e -> e.seq | Event_queue.Msg m -> m.seq

let run_thunk = function
  | Event_queue.Thunk e -> e.run ()
  | Event_queue.Msg _ -> Alcotest.fail "a message in a timer-only heap"

let test_heap_ordering () =
  let q = Event_queue.create () in
  let log = ref [] in
  let push at seq = ignore (Event_queue.push q ~at ~seq (fun () -> log := (at, seq) :: !log)) in
  push 5.0 1;
  push 1.0 2;
  push 3.0 3;
  push 1.0 4;
  let now = { Event_queue.f = 0.0 } in
  let rec drain () =
    let e = Event_queue.pop_before q ~limit:Float.infinity ~now in
    if not (Event_queue.is_dummy e) then begin
      run_thunk e;
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list (pair (float 0.0) int)))
    "time order with FIFO ties"
    [ (1.0, 2); (1.0, 4); (3.0, 3); (5.0, 1) ]
    (List.rev !log)

let test_heap_cancel () =
  let q = Event_queue.create () in
  let fired = ref false in
  let e = Event_queue.push q ~at:1.0 ~seq:1 (fun () -> fired := true) in
  Event_queue.cancel q e;
  let now = { Event_queue.f = 0.0 } in
  Alcotest.(check bool) "cancelled popped as none" true
    (Event_queue.is_dummy (Event_queue.pop_before q ~limit:Float.infinity ~now));
  Alcotest.(check bool) "never fired" false !fired

(* Cancelling a handle whose event already fired changes nothing: a fired
   event is not a dead heap entry, so it cannot bring a compaction forward.
   Here 60 stale cancels and one real one leave one dead entry of 70, far
   below the half that triggers a compaction. *)
let test_heap_cancel_after_pop () =
  let q = Event_queue.create () in
  let handles = Array.init 100 (fun i -> Event_queue.push q ~at:(float_of_int i) ~seq:i ignore) in
  let now = { Event_queue.f = 0.0 } in
  for _ = 1 to 60 do
    ignore (Event_queue.pop_before q ~limit:Float.infinity ~now)
  done;
  for i = 0 to 59 do
    Event_queue.cancel q handles.(i)
  done;
  for i = 100 to 129 do
    ignore (Event_queue.push q ~at:(float_of_int i) ~seq:i ignore)
  done;
  Alcotest.(check int) "size before" 70 (Event_queue.size q);
  Event_queue.cancel q handles.(99);
  Alcotest.(check int) "one cancel does not compact" 70 (Event_queue.size q)

(* Cancel-heavy churn (every pushed event is cancelled, as when every
   committed txn cancels its timeout) must not bloat the heap: cancelled
   entries are compacted away once they outnumber live ones, so heap size
   stays within a constant factor of the live count. *)
let test_heap_bounded_under_churn () =
  let q = Event_queue.create () in
  (* A bed of live events that stays in the heap throughout. *)
  for i = 1 to 32 do
    ignore (Event_queue.push q ~at:(1000.0 +. float_of_int i) ~seq:i ignore)
  done;
  let max_size = ref 0 in
  for i = 1 to 10_000 do
    let ev = Event_queue.push q ~at:(float_of_int i) ~seq:(32 + i) ignore in
    Event_queue.cancel q ev;
    if Event_queue.size q > !max_size then max_size := Event_queue.size q
  done;
  Alcotest.(check bool)
    (Printf.sprintf "heap stayed bounded (max %d)" !max_size)
    true (!max_size <= 128);
  (* Cancellation is idempotent and the live bed survives intact. *)
  let count = ref 0 in
  let now = { Event_queue.f = 0.0 } in
  let rec drain () =
    let ev = Event_queue.pop_before q ~limit:Float.infinity ~now in
    if not (Event_queue.is_dummy ev) then begin
      Alcotest.(check bool) "only live events pop" true (seq_of ev <= 32);
      incr count;
      drain ()
    end
  in
  drain ();
  Alcotest.(check int) "all live events survived compaction" 32 !count

(* Compaction must not disturb pop order: interleave pushes and cancels,
   then check the survivors still drain in (at, seq) order. *)
let test_heap_compaction_preserves_order () =
  let q = Event_queue.create () in
  let rng = Mdcc_util.Rng.create 5 in
  let live = ref [] in
  for i = 1 to 2_000 do
    let at = Mdcc_util.Rng.float rng 1000.0 in
    let ev = Event_queue.push q ~at ~seq:i ignore in
    if Mdcc_util.Rng.float rng 1.0 < 0.7 then Event_queue.cancel q ev
    else live := (at, i) :: !live
  done;
  let expected = List.sort compare (List.rev !live) in
  let popped = ref [] in
  (* Drain through pop_before, the engine's dispatch primitive: the popped
     event's time arrives via the clock cell, not the handle. *)
  let now = { Event_queue.f = 0.0 } in
  let rec drain () =
    let ev = Event_queue.pop_before q ~limit:Float.infinity ~now in
    if not (Event_queue.is_dummy ev) then begin
      popped := (now.Event_queue.f, seq_of ev) :: !popped;
      drain ()
    end
  in
  drain ();
  Alcotest.(check (list (pair (float 0.0) int)))
    "survivors pop in (at, seq) order" expected (List.rev !popped)

let test_heap_many () =
  let q = Event_queue.create () in
  let n = 10_000 in
  let rng = Mdcc_util.Rng.create 11 in
  for i = 1 to n do
    ignore (Event_queue.push q ~at:(Mdcc_util.Rng.float rng 1000.0) ~seq:i ignore)
  done;
  Alcotest.(check int) "size" n (Event_queue.size q);
  let last = ref neg_infinity in
  let count = ref 0 in
  let now = { Event_queue.f = 0.0 } in
  let rec drain () =
    let ev = Event_queue.pop_before q ~limit:Float.infinity ~now in
    if not (Event_queue.is_dummy ev) then begin
      Alcotest.(check bool) "monotone" true (now.Event_queue.f >= !last);
      last := now.Event_queue.f;
      incr count;
      drain ()
    end
  in
  drain ();
  Alcotest.(check int) "all popped" n !count

(* pop_before is the engine's allocation-free dispatch primitive; pin its
   limit semantics at the boundaries. *)
let test_pop_before_limit () =
  let q = Event_queue.create () in
  ignore (Event_queue.push q ~at:5.0 ~seq:1 ignore);
  ignore (Event_queue.push q ~at:10.0 ~seq:2 ignore);
  let now = { Event_queue.f = 0.0 } in
  (* Limit below the earliest event: nothing pops, clock untouched. *)
  Alcotest.(check bool) "below earliest is dummy" true
    (Event_queue.is_dummy (Event_queue.pop_before q ~limit:4.99 ~now));
  Alcotest.(check (float 0.0)) "clock untouched on dummy" 0.0 now.Event_queue.f;
  Alcotest.(check int) "nothing removed" 2 (Event_queue.size q);
  (* Limit exactly at the event time: inclusive. *)
  let ev = Event_queue.pop_before q ~limit:5.0 ~now in
  Alcotest.(check bool) "limit is inclusive" false (Event_queue.is_dummy ev);
  Alcotest.(check int) "seq of popped" 1 (seq_of ev);
  Alcotest.(check (float 0.0)) "clock advanced to event time" 5.0 now.Event_queue.f;
  (* Next event is past the limit again. *)
  Alcotest.(check bool) "next beyond limit is dummy" true
    (Event_queue.is_dummy (Event_queue.pop_before q ~limit:5.0 ~now));
  Alcotest.(check (float 0.0)) "clock stays" 5.0 now.Event_queue.f

let test_pop_before_skips_cancelled () =
  (* Cancelled events at the root are discarded without advancing the
     clock, even when their times are within the limit. *)
  let q = Event_queue.create () in
  let e1 = Event_queue.push q ~at:1.0 ~seq:1 ignore in
  let e2 = Event_queue.push q ~at:2.0 ~seq:2 ignore in
  ignore (Event_queue.push q ~at:3.0 ~seq:3 ignore);
  Event_queue.cancel q e1;
  Event_queue.cancel q e2;
  let now = { Event_queue.f = 0.0 } in
  let ev = Event_queue.pop_before q ~limit:10.0 ~now in
  Alcotest.(check int) "first live event" 3 (seq_of ev);
  Alcotest.(check (float 0.0)) "clock is the live event's time" 3.0 now.Event_queue.f;
  Alcotest.(check bool) "drained" true
    (Event_queue.is_dummy (Event_queue.pop_before q ~limit:10.0 ~now));
  Alcotest.(check int) "heap empty" 0 (Event_queue.size q)

let test_pop_before_empty () =
  let q = Event_queue.create () in
  let now = { Event_queue.f = 42.0 } in
  Alcotest.(check bool) "empty heap is dummy" true
    (Event_queue.is_dummy (Event_queue.pop_before q ~limit:Float.infinity ~now));
  Alcotest.(check (float 0.0)) "clock untouched" 42.0 now.Event_queue.f

let test_engine_ordering_and_clock () =
  let e = Engine.create ~seed:1 in
  let log = ref [] in
  ignore (Engine.schedule e ~after:10.0 (fun () -> log := ("b", Engine.now e) :: !log));
  ignore (Engine.schedule e ~after:5.0 (fun () -> log := ("a", Engine.now e) :: !log));
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0))))
    "fired in order at right times"
    [ ("a", 5.0); ("b", 10.0) ]
    (List.rev !log)

let test_engine_nested_schedule () =
  let e = Engine.create ~seed:1 in
  let hits = ref 0 in
  ignore
    (Engine.schedule e ~after:1.0 (fun () ->
         incr hits;
         ignore (Engine.schedule e ~after:1.0 (fun () -> incr hits))));
  Engine.run e;
  Alcotest.(check int) "nested event ran" 2 !hits;
  Alcotest.(check (float 0.0)) "clock at last event" 2.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create ~seed:1 in
  let hits = ref 0 in
  ignore (Engine.schedule e ~after:5.0 (fun () -> incr hits));
  ignore (Engine.schedule e ~after:50.0 (fun () -> incr hits));
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "only first fired" 1 !hits;
  Alcotest.(check (float 0.0)) "clock advanced to until" 10.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "second fires later" 2 !hits

let test_engine_cancel () =
  let e = Engine.create ~seed:1 in
  let hits = ref 0 in
  let h = Engine.schedule e ~after:5.0 (fun () -> incr hits) in
  Engine.cancel e h;
  Engine.run e;
  Alcotest.(check int) "cancelled" 0 !hits

(* The (time, name) log of a script run with its periodic timers built by
   [Engine.every] or, when [periodic] is false, as the self-re-arming
   chain [every] replaces: a thunk that runs the tick and then schedules
   itself [period] ahead.  The script has timers of periods 2 and 3, and a
   third of period 6 started from inside a tick; fixed-time events on tick
   instants, pushed before and after the timers start; and ticks that
   schedule events for their own next instant, for a later one, and at
   zero delay. *)
let periodic_log ~periodic =
  let e = Engine.create ~seed:1 in
  let log = ref [] in
  let note name = log := (Engine.now e, name) :: !log in
  let every period f =
    if periodic then Engine.every e ~period f
    else begin
      let rec loop () =
        f ();
        ignore (Engine.schedule e ~after:period loop)
      in
      ignore (Engine.schedule e ~after:period loop)
    end
  in
  let at t name = ignore (Engine.schedule_at e ~at:t (fun () -> note name)) in
  at 2.0 "fixed 2";
  at 6.0 "fixed 6";
  let a = ref 0 in
  every 2.0 (fun () ->
      incr a;
      note (Printf.sprintf "a%d" !a);
      if !a mod 2 = 1 then at (Engine.now e +. 2.0) "a: next tick";
      if !a = 2 then every 6.0 (fun () -> note "c");
      if !a mod 3 = 0 then ignore (Engine.schedule e ~after:0.0 (fun () -> note "a: now")));
  at 6.0 "fixed 6 after a";
  every 3.0 (fun () ->
      note "b";
      at (Engine.now e +. 6.0) "b: two ticks on");
  at 12.0 "fixed 12";
  Engine.run ~until:30.0 e;
  List.rev !log

let test_every_matches_rearming_chain () =
  let chain = periodic_log ~periodic:false in
  Alcotest.(check int) "the chain's log" 53 (List.length chain);
  Alcotest.(check (list (pair (float 0.0) string))) "same firing log" chain
    (periodic_log ~periodic:true)

(* The (time, name) log of a script whose one-shot timer is an
   [Engine.alarm] armed again after each firing or, when [alarm] is
   false, a fresh [Engine.schedule] of the same thunk at each arming:
   events at the alarm's instants are pushed before and after it is
   armed, it is armed from another event at zero delay, and from its own
   firing. *)
let alarm_log ~alarm =
  let e = Engine.create ~seed:1 in
  let log = ref [] in
  let note name = log := (Engine.now e, name) :: !log in
  let at t name f = ignore (Engine.schedule_at e ~at:t (fun () -> note name; f ())) in
  let fired = ref 0 and arm = ref (fun _ -> ()) in
  let fire () =
    incr fired;
    note (Printf.sprintf "alarm %d" !fired);
    if !fired = 2 then !arm 1.0
  in
  let a = Engine.alarm fire in
  (arm := fun after -> if alarm then Engine.arm e a ~after else ignore (Engine.schedule e ~after fire));
  at 4.0 "fixed 4, before" ignore;
  !arm 4.0;
  at 4.0 "fixed 4, after" ignore;
  at 5.0 "arm for 8" (fun () ->
      at 8.0 "fixed 8, before" ignore;
      !arm 3.0;
      at 8.0 "fixed 8, after" ignore);
  at 10.0 "arm now" (fun () -> !arm 0.0);
  at 10.0 "fixed 10" ignore;
  Engine.run e;
  List.rev !log

let test_alarm_orders_as_schedule () =
  let scheduled = alarm_log ~alarm:false in
  Alcotest.(check int) "the scheduled log" 11 (List.length scheduled);
  Alcotest.(check (list (pair (float 0.0) string))) "same firing log" scheduled
    (alarm_log ~alarm:true);
  let e = Engine.create ~seed:1 in
  let a = Engine.alarm ignore in
  Engine.arm e a ~after:1.0;
  (match Engine.arm e a ~after:2.0 with
  | () -> Alcotest.fail "an armed alarm was armed again"
  | exception Mdcc_util.Invariant.Violation _ -> ());
  Alcotest.(check int) "one event armed" 1 (Engine.pending e)

(* A period that is not positive would tick forever at one instant. *)
let test_every_rejects_bad_period () =
  let e = Engine.create ~seed:1 in
  let net =
    Net.create e
      (Topology.make ~dc_names:[| "a" |] ~rtt:[| [| 0.0 |] |] ~nodes_per_dc:1 ())
      ()
  in
  let runtimes =
    [
      ("Engine.every", Engine.every e);
      ("Runtime.every (of_network)", Mdcc_core.Runtime.every (Mdcc_core.Runtime.of_network net));
      ( "Runtime.every (make)",
        Mdcc_core.Runtime.every (Helpers.silent_runtime ()).Helpers.runtime );
    ]
  in
  List.iter
    (fun (name, every) ->
      List.iter
        (fun period ->
          match every ~period ignore with
          | () -> Alcotest.failf "%s accepted period %g" name period
          | exception Mdcc_util.Invariant.Violation _ -> ())
        [ 0.0; -1.0; Float.nan; Float.neg_infinity ])
    runtimes;
  Alcotest.(check int) "nothing armed" 0 (Engine.pending e)

let test_topology_ec2 () =
  let topo = Topology.ec2_five () in
  Alcotest.(check int) "5 DCs" 5 (Topology.num_dcs topo);
  Alcotest.(check int) "5 nodes" 5 (Topology.num_nodes topo);
  Alcotest.(check (float 0.0)) "self latency 0" 0.0 (Topology.one_way topo 0 0);
  (* symmetric *)
  Alcotest.(check (float 0.0)) "symmetric" (Topology.one_way topo 0 1) (Topology.one_way topo 1 0);
  Alcotest.(check bool) "west-east < west-eu" true
    (Topology.one_way topo Topology.us_west Topology.us_east
    < Topology.one_way topo Topology.us_west 2)

let test_topology_partitioned () =
  let topo = Topology.ec2_five ~nodes_per_dc:3 () in
  Alcotest.(check int) "15 nodes" 15 (Topology.num_nodes topo);
  Alcotest.(check (list int)) "dc1 nodes" [ 3; 4; 5 ] (Topology.nodes_in_dc topo 1);
  (* Same-DC latency is the intra-DC latency. *)
  Alcotest.(check (float 0.0)) "intra" 0.5 (Topology.one_way topo 3 4)

let test_topology_add_nodes () =
  let topo = Topology.add_nodes (Topology.ec2_five ~nodes_per_dc:2 ()) ~per_dc:1 in
  Alcotest.(check int) "15 nodes" 15 (Topology.num_nodes topo);
  Alcotest.(check int) "new node in dc0" 0 (Topology.dc_of topo 10);
  Alcotest.(check int) "new node in dc4" 4 (Topology.dc_of topo 14)

type Net.payload += Ping of int

let test_network_delivery () =
  let e = Engine.create ~seed:2 in
  let topo = Topology.ec2_five () in
  let net = Net.create e topo ~jitter_sigma:0.0 () in
  let received = ref [] in
  Net.register net 1 (fun ~src p ->
      match p with Ping n -> received := (src, n, Engine.now e) :: !received | _ -> ());
  Net.send net ~src:0 ~dst:1 (Ping 42);
  Engine.run e;
  match !received with
  | [ (src, n, at) ] ->
    Alcotest.(check int) "src" 0 src;
    Alcotest.(check int) "payload" 42 n;
    (* us-west <-> us-east one way = 40ms + 0.25 floor *)
    Alcotest.(check (float 0.01)) "latency" 40.25 at
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_network_failed_node_drops () =
  let e = Engine.create ~seed:2 in
  let net = Net.create e (Topology.ec2_five ()) ~jitter_sigma:0.0 () in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr received);
  Net.fail_node net 1;
  Net.send net ~src:0 ~dst:1 (Ping 1);
  Engine.run e;
  Alcotest.(check int) "dropped" 0 !received;
  Alcotest.(check int) "stat" 1 (Net.stats net).Net.dropped;
  Net.recover_node net 1;
  Net.send net ~src:0 ~dst:1 (Ping 2);
  Engine.run e;
  Alcotest.(check int) "delivered after recovery" 1 !received

let test_network_inflight_failure () =
  (* A message in flight to a node that fails before delivery is lost. *)
  let e = Engine.create ~seed:2 in
  let net = Net.create e (Topology.ec2_five ()) ~jitter_sigma:0.0 () in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr received);
  Net.send net ~src:0 ~dst:1 (Ping 1);
  ignore (Engine.schedule e ~after:1.0 (fun () -> Net.fail_node net 1));
  Engine.run e;
  Alcotest.(check int) "in-flight message killed" 0 !received

let test_network_fail_dc () =
  let e = Engine.create ~seed:2 in
  let topo = Topology.ec2_five ~nodes_per_dc:2 () in
  let net = Net.create e topo ~jitter_sigma:0.0 () in
  let received = ref 0 in
  List.iter
    (fun n -> Net.register net n (fun ~src:_ _ -> incr received))
    (Topology.all_nodes topo);
  Net.fail_dc net 1;
  Net.send net ~src:0 ~dst:2 (Ping 1);
  Net.send net ~src:0 ~dst:3 (Ping 1);
  Net.send net ~src:0 ~dst:4 (Ping 1);
  Engine.run e;
  Alcotest.(check int) "only dc2 node got it" 1 !received

let test_network_drop_probability () =
  let e = Engine.create ~seed:3 in
  let net = Net.create e (Topology.ec2_five ()) ~drop_probability:0.5 ~jitter_sigma:0.0 () in
  let received = ref 0 in
  Net.register net 1 (fun ~src:_ _ -> incr received);
  for _ = 1 to 1000 do
    Net.send net ~src:0 ~dst:1 (Ping 1)
  done;
  Engine.run e;
  Alcotest.(check bool) "~half dropped" true (!received > 400 && !received < 600)

let test_network_jitter_positive () =
  let e = Engine.create ~seed:4 in
  let net = Net.create e (Topology.ec2_five ()) ~jitter_sigma:0.1 () in
  for _ = 1 to 100 do
    let l = Net.latency_sample net ~src:0 ~dst:1 in
    Alcotest.(check bool) "latency positive and near base" true (l > 20.0 && l < 100.0)
  done

(* Without jitter a latency is the floor plus the topology's one-way
   latency, for every pair: same node, same DC and across DCs. *)
let test_network_latency_table () =
  let e = Engine.create ~seed:4 in
  let topo = Topology.ec2_five ~nodes_per_dc:2 () in
  let net = Net.create e topo ~jitter_sigma:0.0 () in
  for src = 0 to Topology.num_nodes topo - 1 do
    for dst = 0 to Topology.num_nodes topo - 1 do
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%d -> %d" src dst)
        (0.25 +. Topology.one_way topo src dst)
        (Net.latency_sample net ~src ~dst)
    done
  done

(* [post] reads its delay from a cell but clamps and orders exactly like
   [schedule]. *)
let test_engine_post () =
  let delays = [ 5.0; -3.0; 0.0; 2.5; 5.0; -0.0; 7.25 ] in
  let run schedule =
    let e = Engine.create ~seed:1 in
    let log = ref [] in
    Engine.set_delivery e (fun ~src ~dst:_ ~bytes:_ _ _ -> log := (src, Engine.now e) :: !log);
    ignore (Engine.schedule e ~after:1.0 ignore);
    Engine.run e;
    List.iteri (fun i d -> schedule e i d (fun () -> log := (i, Engine.now e) :: !log)) delays;
    Engine.run e;
    List.rev !log
  in
  let cell = { Event_queue.f = 0.0 } in
  Alcotest.(check (list (pair int (float 0.0))))
    "same times, same order"
    (run (fun e _ d f -> ignore (Engine.schedule e ~after:d f)))
    (run (fun e i d _ ->
         cell.Event_queue.f <- d;
         Engine.post e cell ~src:i ~dst:0 ~bytes:0 (Ping i) None))

(* A message and a timer due at the same instant fire in push order,
   whichever was pushed first: both kinds share the engine's [seq]. *)
let test_message_timer_tie () =
  let order message_first =
    let e = Engine.create ~seed:1 in
    let net = Net.create e (Topology.ec2_five ()) ~jitter_sigma:0.0 () in
    let log = ref [] in
    let fired name () = log := (name, Engine.now e) :: !log in
    Net.register net 0 (fun ~src:_ _ -> fired "message" ());
    (* Loopback costs exactly the 0.25 ms floor without jitter. *)
    let send () = Net.send net ~src:0 ~dst:0 (Ping 1) in
    let timer () = ignore (Engine.schedule e ~after:0.25 (fired "timer")) in
    (* A first message leaves its record in the pool, so the tie below
       runs on a reused record with a fresh [seq]. *)
    send ();
    Engine.run e;
    log := [];
    if message_first then (send (); timer ()) else (timer (); send ());
    Engine.run e;
    List.rev !log
  in
  let check name expected got =
    Alcotest.(check (list (pair string (float 0.0))))
      name (List.map (fun n -> (n, 0.5)) expected) got
  in
  check "message pushed first fires first" [ "message"; "timer" ] (order true);
  check "timer pushed first fires first" [ "timer"; "message" ] (order false)

(* A handler that sends during its own delivery reuses the record its
   message came in: every fan-out message must still arrive with its own
   payload, endpoints and trace context. *)
let test_send_during_delivery () =
  let e = Engine.create ~seed:3 in
  let net = Net.create e (Topology.ec2_five ()) () in
  let show ~src ~dst n ctx = Printf.sprintf "%d->%d Ping %d in %s" src dst n ctx in
  let got = ref [] in
  let record dst ~src = function
    | Ping n -> got := show ~src ~dst n (Option.get (Net.trace_context ())) :: !got
    | _ -> Alcotest.fail "unexpected payload"
  in
  List.iter (fun n -> Net.register net n (record n)) [ 0; 2; 3; 4 ];
  let ctx n dst = Printf.sprintf "t%d.%d" n dst in
  Net.register net 1 (fun ~src -> function
    | Ping n ->
      List.iter
        (fun dst ->
          Net.with_trace_context
            (Some (ctx n dst))
            (fun () -> Net.send net ~src:1 ~dst (Ping ((10 * n) + dst))))
        [ src; 2; 3; 4 ]
    | _ -> Alcotest.fail "unexpected payload");
  Net.with_trace_context (Some "root") (fun () ->
      Net.send net ~src:0 ~dst:1 (Ping 1);
      Net.send net ~src:3 ~dst:1 (Ping 2));
  Engine.run e;
  let expected =
    List.concat_map
      (fun (n, from) ->
        List.map (fun dst -> show ~src:1 ~dst ((10 * n) + dst) (ctx n dst)) [ from; 2; 3; 4 ])
      [ (1, 0); (2, 3) ]
  in
  Alcotest.(check (list string))
    "every fan-out message intact" (List.sort compare expected) (List.sort compare !got)

(* A handler that raises restores the trace context it replaced, and the
   next queued message is delivered intact once the engine resumes. *)
let test_handler_raises () =
  let e = Engine.create ~seed:2 in
  let net = Net.create e (Topology.ec2_five ()) ~jitter_sigma:0.0 () in
  let got = ref [] in
  Net.register net 1 (fun ~src p ->
      match p with
      | Ping 1 -> failwith "handler failed"
      | Ping n -> got := (src, n, Net.trace_context ()) :: !got
      | _ -> ());
  Net.with_trace_context (Some "a") (fun () -> Net.send net ~src:0 ~dst:1 (Ping 1));
  ignore (Engine.schedule e ~after:1.0 (fun () ->
      Net.with_trace_context (Some "b") (fun () -> Net.send net ~src:0 ~dst:1 (Ping 2))));
  let after_raise =
    Net.with_trace_context (Some "outer") (fun () ->
        (match Engine.run e with
        | () -> Alcotest.fail "the handler's exception was swallowed"
        | exception Failure _ -> ());
        Net.trace_context ())
  in
  Alcotest.(check (option string)) "context restored on raise" (Some "outer") after_raise;
  Engine.run e;
  Alcotest.(check (list (triple int int (option string))))
    "next message delivered" [ (0, 2, Some "b") ] !got

let test_one_network_per_engine () =
  let e = Engine.create ~seed:1 in
  ignore (Net.create e (Topology.ec2_five ()) ());
  match Net.create e (Topology.ec2_five ()) () with
  | _ -> Alcotest.fail "a second network on one engine was accepted"
  | exception Invalid_argument _ -> ()

let test_network_determinism () =
  let run seed =
    let e = Engine.create ~seed in
    let net = Net.create e (Topology.ec2_five ()) () in
    let log = ref [] in
    Net.register net 1 (fun ~src:_ p ->
        match p with Ping n -> log := (n, Engine.now e) :: !log | _ -> ());
    for i = 1 to 20 do
      Net.send net ~src:0 ~dst:1 (Ping i)
    done;
    Engine.run e;
    !log
  in
  Alcotest.(check bool) "same seed, same trace" true (run 9 = run 9);
  Alcotest.(check bool) "different seed, different trace" true (run 9 <> run 10)

(* The meter's size estimator walks the whole payload, so it must run once
   per message (at send), with the byte count carried into delivery — not
   recomputed.  Byte counters must be identical to the old
   size-at-both-ends behavior. *)
let test_network_meter_size_once () =
  let e = Engine.create ~seed:2 in
  let net = Net.create e (Topology.ec2_five ()) ~jitter_sigma:0.0 () in
  let size_calls = ref 0 in
  let sent_bytes = ref 0 and delivered_bytes = ref 0 in
  Net.set_meter net
    {
      Net.m_size =
        (fun p ->
          incr size_calls;
          match p with Ping n -> 100 + n | _ -> 1);
      m_on_send = (fun ~src:_ ~dst:_ ~bytes -> sent_bytes := !sent_bytes + bytes);
      m_on_deliver =
        (fun ~src:_ ~dst:_ ~bytes -> delivered_bytes := !delivered_bytes + bytes);
    };
  Net.register net 1 (fun ~src:_ _ -> ());
  for i = 1 to 10 do
    Net.send net ~src:0 ~dst:1 (Ping i)
  done;
  Engine.run e;
  Alcotest.(check int) "size_of computed once per message" 10 !size_calls;
  Alcotest.(check int) "send bytes" 1055 !sent_bytes;
  Alcotest.(check int) "deliver bytes match send bytes" 1055 !delivered_bytes

let suite =
  [
    Alcotest.test_case "heap ordering" `Quick test_heap_ordering;
    Alcotest.test_case "heap bounded under cancel churn" `Quick
      test_heap_bounded_under_churn;
    Alcotest.test_case "heap compaction preserves order" `Quick
      test_heap_compaction_preserves_order;
    Alcotest.test_case "heap cancel" `Quick test_heap_cancel;
    Alcotest.test_case "heap 10k monotone" `Quick test_heap_many;
    Alcotest.test_case "pop_before limit semantics" `Quick test_pop_before_limit;
    Alcotest.test_case "pop_before skips cancelled" `Quick test_pop_before_skips_cancelled;
    Alcotest.test_case "pop_before on empty heap" `Quick test_pop_before_empty;
    Alcotest.test_case "engine ordering & clock" `Quick test_engine_ordering_and_clock;
    Alcotest.test_case "engine nested schedule" `Quick test_engine_nested_schedule;
    Alcotest.test_case "engine run until" `Quick test_engine_until;
    Alcotest.test_case "engine cancel" `Quick test_engine_cancel;
    Alcotest.test_case "every fires as a re-arming chain" `Quick test_every_matches_rearming_chain;
    Alcotest.test_case "every rejects a period not > 0" `Quick test_every_rejects_bad_period;
    Alcotest.test_case "an alarm orders as a scheduled timer" `Quick test_alarm_orders_as_schedule;
    Alcotest.test_case "topology ec2" `Quick test_topology_ec2;
    Alcotest.test_case "topology partitioned" `Quick test_topology_partitioned;
    Alcotest.test_case "topology add_nodes" `Quick test_topology_add_nodes;
    Alcotest.test_case "network delivery & latency" `Quick test_network_delivery;
    Alcotest.test_case "network failed node drops" `Quick test_network_failed_node_drops;
    Alcotest.test_case "network in-flight failure" `Quick test_network_inflight_failure;
    Alcotest.test_case "network fail dc" `Quick test_network_fail_dc;
    Alcotest.test_case "network drop probability" `Quick test_network_drop_probability;
    Alcotest.test_case "network jitter" `Quick test_network_jitter_positive;
    Alcotest.test_case "network determinism" `Quick test_network_determinism;
    Alcotest.test_case "network meter sizes once" `Quick test_network_meter_size_once;
    Alcotest.test_case "network latency table" `Quick test_network_latency_table;
    Alcotest.test_case "engine post" `Quick test_engine_post;
    Alcotest.test_case "heap cancel after pop is a no-op" `Quick test_heap_cancel_after_pop;
    Alcotest.test_case "message and timer tie in push order" `Quick test_message_timer_tie;
    Alcotest.test_case "network send during delivery" `Quick test_send_during_delivery;
    Alcotest.test_case "network handler raises" `Quick test_handler_raises;
    Alcotest.test_case "network one per engine" `Quick test_one_network_per_engine;
  ]
