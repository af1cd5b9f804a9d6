(* The two simulator workloads, tpcw and hotspot.

   Untraced, a repetition deploys through [Setup.make] and drives
   [Runner.run] exactly as the experiment drivers do.  Traced, it assembles
   the same deployment itself (see [mirror]) so that every handler, timer,
   spawned thunk and client entry point runs inside a [Tracer] span.  The
   traced run must reproduce the untraced run's deterministic results
   bit for bit; if it does not, the mirror is a different program and the
   repetition fails. *)

open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Rng = Mdcc_util.Rng
module Obs = Mdcc_obs.Obs
module Prof = Mdcc_obs.Prof
module Registry = Mdcc_obs.Registry
module Json = Mdcc_obs.Json
module Config = Mdcc_core.Config
module Cluster = Mdcc_core.Cluster
module Coordinator = Mdcc_core.Coordinator
module Storage_node = Mdcc_core.Storage_node
module Messages = Mdcc_core.Messages
module Runtime = Mdcc_core.Runtime
module Ctx = Mdcc_core.Ctx
module Harness = Mdcc_protocols.Harness
module Setup = Mdcc_workload.Setup
module Runner = Mdcc_workload.Runner
module Metrics = Mdcc_workload.Metrics
module Generator = Mdcc_workload.Generator
module Tpcw = Mdcc_workload.Tpcw
module Micro = Mdcc_workload.Micro

type cfg = {
  partitions : int;
  clients : int;
  warmup : float;  (* virtual ms *)
  duration : float;
  drain : float;
  schema : Schema.t;
  rows : Rng.t -> (Key.t * Value.t) list;
  gen : Generator.t;
  stock_keys : Key.t list;  (* rows whose [stock >= 0] is checked *)
}

let item_key i = Key.make ~table:"item" ~id:(string_of_int i)

(* Virtual-time phases: warm-up, measured window, drain (ms). *)
type phases = { warmup_ms : float; measured_ms : float; drain_ms : float }

let toy = { warmup_ms = 200.0; measured_ms = 500.0; drain_ms = 2_000.0 }

(* TPC-W ordering mix, commutative stock decrements (the paper's common
   case, Fig. 3/4). *)
let tpcw ph =
  let p = { Tpcw.default with Tpcw.items = 8_000; commutative = true } in
  {
    partitions = 4;
    clients = 100;
    warmup = ph.warmup_ms;
    duration = ph.measured_ms;
    drain = ph.drain_ms;
    schema = Tpcw.schema;
    rows = (fun rng -> Tpcw.rows p ~rng);
    gen = Tpcw.generator p;
    stock_keys = List.init p.Tpcw.items item_key;
  }

(* Contended read-modify-writes: 90 % of accesses on the hottest 5 % of
   10k items (the Fig. 6 / gamma regime). *)
let hotspot ph =
  let p =
    { Micro.default with Micro.num_items = 10_000; commutative = false; hotspot = Some (0.05, 0.9) }
  in
  {
    partitions = 2;
    clients = 100;
    warmup = ph.warmup_ms;
    duration = ph.measured_ms;
    drain = ph.drain_ms;
    schema = Micro.schema;
    rows = (fun rng -> Micro.rows p ~rng);
    gen = Micro.generator p;
    stock_keys = List.init p.Micro.num_items Micro.item_key;
  }

let dcs = 5

let runner_spec cfg ~seed =
  let base = cfg.clients / dcs and extra = cfg.clients mod dcs in
  {
    Runner.clients_per_dc = Array.init dcs (fun dc -> base + if dc < extra then 1 else 0);
    warmup = cfg.warmup;
    duration = cfg.duration;
    drain = cfg.drain;
    seed;
  }

(* ------------------------------------------------------------------ *)
(* The traced deployment                                               *)
(* ------------------------------------------------------------------ *)

(* [Setup.make Setup.Mdcc] followed by [Cluster.create], written out over a
   traced runtime: same node layout, same RNG split order (network, then
   storage nodes in id order, then app-servers), same meter, same snapshot
   sources, same load order. *)
let mirror tr cfg ~seed ~obs ~rows =
  let engine = Engine.create ~seed in
  let config = Config.make ~mode:Config.Full ~gamma:100 ~replication:dcs () in
  let partitions = cfg.partitions in
  let spec = Cluster.Spec.make ~partitions () in
  let storage_topo = Topology.ec2_five ~nodes_per_dc:partitions () in
  let topo = Topology.add_nodes storage_topo ~per_dc:spec.Cluster.Spec.app_servers_per_dc in
  let net =
    Net.create engine topo ~drop_probability:spec.Cluster.Spec.drop_probability
      ~jitter_sigma:spec.Cluster.Spec.jitter_sigma ()
  in
  Net.set_meter net
    {
      Net.m_size = Messages.size_of;
      m_on_send =
        (fun ~src ~dst:_ ~bytes ->
          Obs.incr obs (Printf.sprintf "net.sent.node%02d" src);
          Obs.incr obs ~by:bytes (Printf.sprintf "net.sent_bytes.node%02d" src));
      m_on_deliver =
        (fun ~src:_ ~dst ~bytes ->
          Obs.incr obs (Printf.sprintf "net.recv.node%02d" dst);
          Obs.incr obs ~by:bytes (Printf.sprintf "net.recv_bytes.node%02d" dst));
    };
  let master_dc_of key = Hashtbl.hash (Key.to_string key ^ "#master") mod dcs in
  let partition_of key = Key.hash key mod partitions in
  let replicas key = List.init dcs (fun dc -> (dc * partitions) + partition_of key) in
  let master_of key = (master_dc_of key * partitions) + partition_of key in
  let storage_n = dcs * partitions in
  let role node = if node < storage_n then "storage_node" else "coordinator" in
  let runtime =
    Layers.traced_runtime tr (Runtime.of_network net) ~role
  in
  let ctx = Ctx.make ~obs () in
  let nodes =
    Array.init storage_n (fun node_id ->
        Storage_node.create ~runtime ~config ~node_id ~schema:cfg.schema ~replicas ~master_of
          ~ctx ())
  in
  let store dc key = Storage_node.store nodes.((dc * partitions) + partition_of key) in
  let snapshot_for dc =
    {
      Coordinator.snap_read = (fun key -> Store.read (store dc key) key);
      snap_scan =
        (fun ~table ->
          let rows = ref [] in
          for p = partitions - 1 downto 0 do
            Store.iter
              (Storage_node.store nodes.((dc * partitions) + p))
              (fun key row ->
                if row.Store.exists && String.equal key.Key.table table then
                  rows := (key, row.Store.value, row.Store.version) :: !rows)
          done;
          !rows);
    }
  in
  let coords =
    Array.init dcs (fun dc ->
        let local_nodes = List.init partitions (fun p -> (dc * partitions) + p) in
        Coordinator.create ~runtime ~config ~node_id:(storage_n + dc) ~replicas ~master_of
          ~snapshot:(snapshot_for dc) ~ctx:(Ctx.with_local_nodes ctx local_nodes) ())
  in
  List.iter
    (fun (key, value) ->
      List.iter (fun node -> Storage_node.load nodes.(node) [ (key, value) ]) (replicas key))
    rows;
  let start_id = Tracer.id tr "storage_node.start_maintenance" in
  Tracer.span tr start_id (fun () -> Array.iter Storage_node.start_maintenance nodes);
  let submit_id = Tracer.id tr "coordinator.submit" and read_id = Tracer.id tr "coordinator.read" in
  {
    Harness.name = "MDCC";
    engine;
    num_dcs = dcs;
    submit =
      (fun ~dc txn cb ->
        Tracer.span tr submit_id (fun () -> Coordinator.submit coords.(dc) txn cb));
    read_local =
      (fun ~dc key cb ->
        Tracer.span tr read_id (fun () -> Coordinator.read ~level:`Local coords.(dc) key cb));
    peek = (fun ~dc key -> Store.read (store dc key) key);
    load = (fun _ -> invalid_arg "mirror: load after set-up");
    fail_dc = (fun dc -> Net.fail_dc net dc);
    recover_dc = (fun dc -> Net.recover_dc net dc);
  }

(* ------------------------------------------------------------------ *)
(* One repetition                                                      *)
(* ------------------------------------------------------------------ *)

(* Post-drain output checks: every [stock] is non-negative at every
   replica, the five replicas of every written key agree, and every
   submitted transaction was decided. *)
let check cfg (h : Harness.t) ~submitted ~decided ~txns =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if decided <> submitted then
    err "%d of %d transactions undecided" (submitted - decided) submitted;
  let negative = ref 0 in
  List.iter
    (fun key ->
      for dc = 0 to dcs - 1 do
        match h.Harness.peek ~dc key with
        | Some (v, _) when Value.get_int v "stock" < 0 -> incr negative
        | Some _ | None -> ()
      done)
    cfg.stock_keys;
  if !negative > 0 then err "%d replica rows with stock < 0" !negative;
  let touched = Key.Tbl.create 4096 in
  List.iter
    (fun txn -> List.iter (fun (k, _) -> Key.Tbl.replace touched k ()) txn.Txn.updates)
    txns;
  let diverged = ref 0 in
  Key.Tbl.sorted_iter
    (fun key () ->
      let reference = h.Harness.peek ~dc:0 key in
      for dc = 1 to dcs - 1 do
        let same =
          match (reference, h.Harness.peek ~dc key) with
          | None, None -> true
          | Some (v1, n1), Some (v2, n2) -> n1 = n2 && Value.equal v1 v2
          | Some _, None | None, Some _ -> false
        in
        if not same then incr diverged
      done)
    touched;
  if !diverged > 0 then
    err "%d (key, dc) replicas disagree with dc0 after the drain" !diverged;
  List.rev !errors

let run cfg ~seed ~traced =
  let tr = Tracer.create () in
  let prof = Prof.ambient () in
  let obs = Obs.create () in
  let harness, setup_s =
    Measure.normalized (fun () ->
        let rows = cfg.rows (Rng.create ((seed * 17) + 3)) in
        if traced then mirror tr cfg ~seed ~obs ~rows
        else
          Setup.make Setup.Mdcc ~seed ~schema:cfg.schema ~partitions:cfg.partitions ~obs ~rows ())
  in
  (* Benchmark-side bookkeeping, identical in both modes. *)
  let submitted = ref 0 and decided = ref 0 and committed = ref 0 and txns = ref [] in
  let harness =
    {
      harness with
      Harness.submit =
        (fun ~dc txn cb ->
          incr submitted;
          txns := txn :: !txns;
          harness.Harness.submit ~dc txn (fun outcome ->
              incr decided;
              if outcome = Txn.Committed then incr committed;
              cb outcome));
    }
  in
  let gen =
    if not traced then cfg.gen
    else begin
      let gen_id = Tracer.id tr "workload.gen" in
      {
        cfg.gen with
        Generator.prepare =
          (fun ctx h k -> Tracer.span tr gen_id (fun () -> cfg.gen.Generator.prepare ctx h k));
      }
    end
  in
  let top0 = Tracer.top_s tr and topw0 = Tracer.top_words tr in
  if traced then Prof.set_enabled prof true;
  let gc0 = Measure.gc () and c0 = Measure.cpu_s () in
  let metrics = Runner.run harness gen (runner_spec cfg ~seed) in
  let cpu = Measure.cpu_s () -. c0 and gc = Measure.gc_diff gc0 (Measure.gc ()) in
  Prof.set_enabled prof false;
  let peak = Measure.peak_heap_mb () in
  let errors = check cfg harness ~submitted:!submitted ~decided:!decided ~txns:!txns in
  let reg = Obs.registry obs in
  let c name = Float.of_int (Registry.counter reg name) in
  let lat = Metrics.commit_latencies metrics in
  let commits = Metrics.commit_count metrics and aborts = Metrics.abort_count metrics in
  (* Costs are per decided transaction.  Per committed one, they would take
     on [success_frac]'s sampling noise, several times theirs on hotspot,
     and trading commits for cheaper aborts shows in [success_frac]. *)
  let ops = Float.of_int !decided in
  let per_op x = Measure.ratio x ops in
  let sent prefix = Float.of_int (Layers.counter_sum (Registry.counter_bindings reg) prefix) in
  let msgs = sent "net.sent.node" in
  let p50 = Measure.percentile lat 50.0 and p99 = Measure.percentile lat 99.0 in
  let success = Measure.ratio_i !committed !submitted in
  let headline =
    [
      ("setup_s", setup_s);
      ("vt_commit_p50_ms", p50);
      ("vt_commit_p99_ms", p99);
      ("success_frac", success);
      ("msgs_per_op", per_op msgs);
      ("minor_words_per_op", per_op gc.Measure.minor_words);
      ("peak_heap_mb", peak);
      ("ops_per_cpu_s", Measure.ratio ops cpu);
    ]
  in
  let counters =
    [
      ("net.bytes_per_op", per_op (sent "net.sent_bytes.node"));
      ("workload.reads_per_op", per_op (c "read_local"));
      ("workload.abort_frac", Measure.ratio_i aborts (commits + aborts));
    ]
    @ Layers.counter_metrics ~c ~per_op
    @ Layers.gc_metrics gc ~per_op
  in
  let layers =
    if not traced then []
    else begin
      let snap = Prof.capture prof in
      let phase name =
        List.find_opt (fun ph -> String.equal ph.Prof.ph_path name) snap.Prof.sn_phases
      in
      let counter name = Option.value (List.assoc_opt name snap.Prof.sn_counters) ~default:0 in
      let engine_s, engine_w =
        match phase "engine.run" with
        | Some ph -> (ph.Prof.ph_wall_ms /. 1000.0, ph.Prof.ph_minor_words)
        | None -> (0.0, 0.0)
      in
      let events = Float.of_int (counter "event_queue.pop") in
      let spans_s = Tracer.top_s tr -. top0 and spans_w = Tracer.top_words tr -. topw0 in
      let self_s = Float.max 0.0 (engine_s -. spans_s) in
      let _, gen_s, _ = Tracer.named tr "workload.gen" in
      [
        ("runtime.events_per_op", per_op events);
        ("runtime.self_us_per_event", 1e6 *. Measure.ratio self_s events);
        ("runtime.words_per_event", Measure.ratio (engine_w -. spans_w) events);
        ("workload.gen_frac", Measure.ratio gen_s engine_s);
      ]
      @ Layers.metrics tr ~frac:(fun s -> Measure.ratio s engine_s) ~per_op
    end
  in
  {
    Rep.attempted = !submitted;
    failed = !submitted - !decided;
    errors;
    values = headline @ counters @ layers;
    det =
      [
        ("commits", Float.of_int commits);
        ("aborts", Float.of_int aborts);
        ("submitted", Float.of_int !submitted);
        ("vt_commit_p50_ms", p50);
        ("vt_commit_p99_ms", p99);
        ("success_frac", success);
        ("msgs", msgs);
      ];
    cpu_s = cpu;
    info =
      (if traced then [ ("trees", Tracer.trees_json tr) ]
       else [ ("commits", Json.Int commits); ("aborts", Json.Int aborts) ]);
  }
