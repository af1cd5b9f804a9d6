open Mdcc_storage
module Loop = Mdcc_runtime_unix.Loop
module Runtime = Mdcc_core.Runtime
module Cluster = Mdcc_core.Cluster
module Layout = Cluster.Layout
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator
module Storage_node = Mdcc_core.Storage_node
module Session = Mdcc_core.Session
module Messages = Mdcc_core.Messages
module Ctx = Mdcc_core.Ctx
module Obs = Mdcc_obs.Obs

type t = {
  sv_loop : Loop.t;
  sv_coord : Coordinator.t;
  sv_obs : Obs.t;
  sv_table : string;
  sv_partitions : int;
  mutable sv_port : int;
  mutable sv_handlers : Handler.t list;
  mutable sv_txid : int;
}

let loop t = t.sv_loop
let port t = t.sv_port
let obs t = t.sv_obs
let coordinator t = t.sv_coord

(* [Printf.sprintf "wire%06d" n] without the format interpreter: one
   string, zero-padded to six digits. *)
let txid_of_int n =
  let len = 4 + Stdlib.max 6 (Mdcc_util.Decimal.width n) in
  let b = Bytes.make len '0' in
  Bytes.blit_string "wire" 0 b 0 4;
  Mdcc_util.Decimal.blit n b ~last:(len - 1);
  Bytes.unsafe_to_string b

let next_txid t () =
  t.sv_txid <- t.sv_txid + 1;
  txid_of_int t.sv_txid

(* The memcached-compatible field set, backed by the live registry the
   handlers write into, followed by the MDCC-specific protocol-path
   counters the coordinator bumps in the same registry.
   Field names track memcached's ("uptime", "cmd_get", "get_hits", …) so
   existing dashboards/clients can point at this server unchanged. *)
let stats t () =
  let reg = Obs.registry t.sv_obs in
  let n = Mdcc_obs.Registry.counter reg in
  let c name = string_of_int (n name) in
  [
    ("uptime", string_of_int (int_of_float (Loop.now t.sv_loop /. 1000.0)));
    ("partitions", string_of_int t.sv_partitions);
    ("uptime_ms", string_of_int (int_of_float (Loop.now t.sv_loop)));
    ("curr_connections", string_of_int (Loop.open_conns t.sv_loop));
    ("total_connections", c "wire.connections");
    ("bytes_read", c "wire.bytes_read");
    ("bytes_written", c "wire.bytes_written");
    ("cmd_get", c "wire.cmd.get");
    ("cmd_set", c "wire.cmd.set");
    ("cmd_cas", c "wire.cmd.cas");
    ("cmd_delete", c "wire.cmd.delete");
    ("get_hits", c "wire.get_hits");
    ("get_misses", c "wire.get_misses");
    ("cas_hits", c "wire.cas_hits");
    ("cas_misses", c "wire.cas_misses");
    ("cas_badval", c "wire.cas_badval");
    ("delete_hits", c "wire.delete_hits");
    ("delete_misses", c "wire.delete_misses");
    ("parser_errors", c "wire.parser_errors");
    ("parser_resyncs", c "wire.parser_resyncs");
    ("fast_commits", c "fast_commit");
    ("assisted_commits", c "assisted_commit");
    ("aborts", string_of_int (n "abort_conflict" + n "abort_constraint"));
    ("collisions", c "collision");
    ("redirects", c "redirect");
    ("timeout_recoveries", c "timeout_recovery");
    ("inflight", string_of_int (Coordinator.inflight t.sv_coord));
  ]

let create ?(seed = 1) ?(nodes = 5) ?(partitions = 1) ?(table = "kv") ?(addr = "127.0.0.1")
    ?(port = 11311) () =
  (* The simulated cluster's layout with one app server per data center:
     [nodes * partitions] storage nodes, and the coordinator is DC 0's app
     server, reading its partition stores locally. *)
  let layout = Layout.make (Cluster.Spec.make ~partitions ()) ~dcs:nodes in
  let storage_n = Layout.num_storage_nodes layout in
  let lp = Loop.create ~seed ~dc_of:(Layout.dc_of layout) () in
  let runtime = Loop.runtime lp in
  let config = Config.make ~replication:nodes () in
  let schema = Mdcc_storage.Schema.create [ { name = table; bounds = []; master_dc = 0 } ] in
  let observ = Obs.create () in
  let ctx = Ctx.make ~obs:observ () in
  let replicas = Layout.replicas layout and master_of = Layout.master_node layout in
  let storage =
    Array.init storage_n (fun i ->
        Storage_node.create ~runtime ~config ~node_id:i ~schema ~replicas ~master_of ~ctx ())
  in
  Array.iter Storage_node.start_maintenance storage;
  (* The stores are in-process: DC 0's partition stores answer every
     session read they hold fresh, and the wire protocol's
     [read <key> local|snapshot] of a present row. *)
  let snapshot = Layout.snapshot layout ~dc:0 (fun node -> Storage_node.store storage.(node)) in
  let coord =
    Coordinator.create ~runtime ~config ~node_id:(Layout.app_node layout ~dc:0 ~rank:0) ~replicas
      ~master_of ~snapshot ~ctx ()
  in
  let w_on_send, w_on_deliver = Obs.traffic_meter observ ~nodes:(storage_n + 1) in
  Loop.set_meter lp { Loop.w_size = Messages.size_of; w_on_send; w_on_deliver };
  let t =
    {
      sv_loop = lp;
      sv_coord = coord;
      sv_obs = observ;
      sv_table = table;
      sv_partitions = partitions;
      sv_port = 0;
      sv_handlers = [];
      sv_txid = 0;
    }
  in
  let bound =
    Loop.listen lp ~addr ~port (fun conn ->
        let session = Session.create coord in
        let backend =
          Backend.of_session ~table:t.sv_table ~stats:(stats t)
            ~partition_of:(fun id -> Layout.partition layout (Key.make ~table:t.sv_table ~id))
            ~obs:observ ~next_txid:(next_txid t) session
        in
        let handler =
          Handler.create ~backend
            ~write:(fun s -> Loop.write conn s)
            ~close:(fun () -> Loop.close conn)
            ~obs:observ ()
        in
        t.sv_handlers <- handler :: t.sv_handlers;
        Obs.incr observ "wire.connections";
        {
          Loop.on_data = (fun buf off len -> Handler.on_data handler buf off len);
          on_close =
            (fun () -> t.sv_handlers <- List.filter (fun h -> h != handler) t.sv_handlers);
        })
  in
  t.sv_port <- bound;
  (* Periodic gauge snapshot, a timer on the loop's engine: loop and
     coordinator state (connection count, write-queue depths, engine-heap
     occupancy, inflight) is copied into the registry every quarter
     second, so a [metrics] scrape only renders already-materialized
     gauges and never walks the connection list on the request path. *)
  let snapshot () =
    Obs.set_gauge observ "wire.curr_connections" (Loop.open_conns lp);
    Obs.set_gauge observ "wire.buffered_bytes" (Loop.buffered_bytes lp);
    Obs.set_gauge observ "wire.max_conn_buffered" (Loop.max_conn_buffered lp);
    Obs.set_gauge observ "wire.timers_pending" (Loop.timers_pending lp);
    Obs.set_gauge observ "wire.uptime_ms" (int_of_float (Loop.now lp));
    Obs.set_gauge observ "coord.inflight" (Coordinator.inflight coord)
  in
  Runtime.spawn runtime (fun () ->
      snapshot ();
      Runtime.every runtime ~period:250.0 snapshot);
  t

let run t = Loop.run t.sv_loop

let shutdown ?(grace_ms = 5000.0) t ~on_done =
  Loop.close_listeners t.sv_loop;
  let runtime = Loop.runtime t.sv_loop in
  let deadline = Loop.now t.sv_loop +. grace_ms in
  let rec check () =
    let drained =
      List.for_all Handler.idle t.sv_handlers
      && Coordinator.inflight t.sv_coord = 0
      && Loop.buffered_bytes t.sv_loop = 0
    in
    if drained || Loop.now t.sv_loop >= deadline then on_done ()
    else ignore (Runtime.set_timer runtime ~after:5.0 check)
  in
  Runtime.spawn runtime check
