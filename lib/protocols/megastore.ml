open Mdcc_storage
module Net = Mdcc_sim.Network
module Acceptor = Mdcc_core.Acceptor
module Runtime = Mdcc_core.Runtime
module Layout = Mdcc_core.Cluster.Layout
module Quorum = Mdcc_paxos.Quorum

type Net.payload +=
  | Ms_submit of { txid : Txn.id; updates : (Key.t * Update.t) list; client : int }
  | Ms_append of { pos : int; txid : Txn.id; updates : (Key.t * Update.t) list }
  | Ms_append_ack of { pos : int }
  | Ms_result of { txid : Txn.id; committed : bool }

type inflight = {
  i_pos : int;
  i_txid : Txn.id;
  i_updates : (Key.t * Update.t) list;
  i_client : int;
  mutable i_acks : Quorum.tally;  (* by position in group_replicas *)
}

type replica_state = {
  mutable next_apply : int;
  buffer : (int, (Key.t * Update.t) list) Hashtbl.t;
}

type t = {
  d : Harness.deployment;
  master_node : int;
  queue : (Txn.id * (Key.t * Update.t) list * int) Queue.t;
  mutable inflight : inflight option;
  mutable next_pos : int;
  replica : replica_state array;  (* per storage node *)
  results : (Txn.id, Txn.outcome -> unit) Hashtbl.t;
  group_replicas : int list;
}

let qc t = (Layout.num_dcs (Harness.layout t.d) / 2) + 1

let send t ~src ~dst payload = Runtime.send (Harness.runtime t.d) ~src ~dst payload

(* Validate a transaction against the master's (up-to-date) store: version
   preconditions plus value constraints.  Megastore has no commutative
   support, so deltas are validated like reads-modify-writes. *)
let validate t (updates : (Key.t * Update.t) list) =
  let store = Harness.store t.d t.master_node in
  List.for_all
    (fun (key, update) ->
      let row = Store.ensure store key in
      let bounds = Schema.bounds_of (Harness.schema t.d) key in
      Acceptor.valid ~bounds row update)
    updates

let apply_at t node updates =
  let store = Harness.store t.d node in
  List.iter (fun (key, update) -> Store.apply store key update) updates

(* Replicas apply log entries strictly in position order. *)
let replica_deliver t node pos updates =
  let rs = t.replica.(node) in
  Hashtbl.replace rs.buffer pos updates;
  let rec drain () =
    match Hashtbl.find_opt rs.buffer rs.next_apply with
    | Some entry ->
      Hashtbl.remove rs.buffer rs.next_apply;
      apply_at t node entry;
      rs.next_apply <- rs.next_apply + 1;
      drain ()
    | None -> ()
  in
  drain ()

let rec master_pump t =
  match t.inflight with
  | Some _ -> ()
  | None -> (
    match Queue.take_opt t.queue with
    | None -> ()
    | Some (txid, updates, client) ->
      if not (validate t updates) then begin
        (* Conflicting transaction: aborted without consuming a position
           (the Paxos-CP refinement lets the non-conflicting ones proceed). *)
        send t ~src:t.master_node ~dst:client (Ms_result { txid; committed = false });
        master_pump t
      end
      else begin
        let pos = t.next_pos in
        t.next_pos <- t.next_pos + 1;
        let inf =
          { i_pos = pos; i_txid = txid; i_updates = updates; i_client = client;
            i_acks = Quorum.Tally.empty }
        in
        t.inflight <- Some inf;
        List.iter
          (fun replica ->
            if replica = t.master_node then begin
              replica_deliver t replica pos updates;
              master_ack t ~src:replica pos
            end
            else
              send t ~src:t.master_node ~dst:replica (Ms_append { pos; txid; updates }))
          t.group_replicas
      end)

and master_ack t ~src pos =
  match t.inflight with
  | Some inf when inf.i_pos = pos ->
    let acks =
      Quorum.Tally.vote inf.i_acks ~pos:(Quorum.position src t.group_replicas) ~ok:true
    in
    if acks <> inf.i_acks then begin
      inf.i_acks <- acks;
      if Quorum.Tally.acks acks >= qc t then begin
        t.inflight <- None;
        send t ~src:t.master_node ~dst:inf.i_client
          (Ms_result { txid = inf.i_txid; committed = true });
        master_pump t
      end
    end
  | Some _ | None -> ()

let storage_handler t ~node ~src payload =
  match payload with
  | Ms_submit { txid; updates; client } ->
    if node = t.master_node then begin
      Queue.add (txid, updates, client) t.queue;
      master_pump t
    end
    else
      (* Not the master: a real system would forward; we reply with a
         redirect-style forward to keep latencies honest. *)
      send t ~src:node ~dst:t.master_node (Ms_submit { txid; updates; client })
  | Ms_append { pos; txid = _; updates } ->
    replica_deliver t node pos updates;
    send t ~src:node ~dst:src (Ms_append_ack { pos })
  | Ms_append_ack { pos } -> if node = t.master_node then master_ack t ~src pos
  (* Client-bound result; the replica log never consumes it. *)
  | Ms_result _ -> ()
  | _ -> ()

let app_handler t ~node:_ ~src:_ payload =
  match payload with
  | Ms_result { txid; committed } -> (
    match Hashtbl.find_opt t.results txid with
    | None -> ()
    | Some cb ->
      Hashtbl.remove t.results txid;
      cb (if committed then Txn.Committed else Txn.Aborted Txn.Conflict))
  (* Replica-log traffic; the app side never consumes it. *)
  | Ms_submit _ | Ms_append _ | Ms_append_ack _ -> ()
  | _ -> ()

let submit t ~dc (txn : Txn.t) cb =
  if Txn.is_read_only txn then
    Runtime.spawn (Harness.runtime t.d) (fun () -> cb Txn.Committed)
  else begin
    Hashtbl.replace t.results txn.Txn.id cb;
    let app = Harness.app_node t.d ~dc in
    send t ~src:app ~dst:t.master_node
      (Ms_submit { txid = txn.Txn.id; updates = txn.Txn.updates; client = app })
  end

let create d =
  let layout = Harness.layout d in
  if Layout.partitions layout <> 1 then
    invalid_arg "Megastore.create: the deployment must have a single partition (one entity group)";
  let t =
    {
      d;
      master_node = Layout.storage_node layout ~dc:Mdcc_sim.Topology.us_west 0;
      queue = Queue.create ();
      inflight = None;
      next_pos = 0;
      replica =
        Array.init (Layout.num_storage_nodes layout) (fun _ ->
            { next_apply = 0; buffer = Hashtbl.create 16 });
      results = Hashtbl.create 256;
      group_replicas = Layout.group layout 0;
    }
  in
  Harness.install d ~storage:(storage_handler t) ~app:(app_handler t);
  t

let log_length t = t.next_pos
