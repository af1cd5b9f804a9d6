open Mdcc_storage
module Net = Mdcc_sim.Network
module Acceptor = Mdcc_core.Acceptor
module Runtime = Mdcc_core.Runtime
module Layout = Mdcc_core.Cluster.Layout

type Net.payload +=
  | Prepare of { txid : Txn.id; key : Key.t; update : Update.t }
  | Vote of { txid : Txn.id; key : Key.t; yes : bool }
  | Decision of { txid : Txn.id; key : Key.t; update : Update.t; commit : bool }
  | Decision_ack of { txid : Txn.id; key : Key.t }

type txn_state = {
  txn : Txn.t;
  cb : Txn.outcome -> unit;
  mutable votes_missing : int;
  mutable all_yes : bool;
  mutable phase2 : bool;
  mutable acks_missing : int;
}

type t = {
  d : Harness.deployment;
  locks : (Txn.id * Update.t) Key.Tbl.t array;  (* per storage node *)
  txns : (Txn.id, txn_state) Hashtbl.t;
}

let send t ~src ~dst payload = Runtime.send (Harness.runtime t.d) ~src ~dst payload

(* Prepare: take an exclusive lock and validate, exactly once per record. *)
let prepare t node key txid update =
  let locks = t.locks.(node) in
  match Key.Tbl.find_opt locks key with
  | Some (owner, _) -> String.equal owner txid  (* duplicate prepare: same vote *)
  | None ->
    let store = Harness.store t.d node in
    let row = Store.ensure store key in
    let bounds = Schema.bounds_of (Harness.schema t.d) key in
    let ok = Acceptor.valid ~bounds row update in
    if ok then Key.Tbl.replace locks key (txid, update);
    ok

let storage_handler t ~node ~src payload =
  match payload with
  | Prepare { txid; key; update } ->
    let yes = prepare t node key txid update in
    send t ~src:node ~dst:src (Vote { txid; key; yes })
  | Decision { txid; key; update; commit } ->
    (match Key.Tbl.find_opt t.locks.(node) key with
    | Some (owner, _) when String.equal owner txid ->
      Key.Tbl.remove t.locks.(node) key;
      if commit then Store.apply (Harness.store t.d node) key update
    | Some _ | None -> ());
    send t ~src:node ~dst:src (Decision_ack { txid; key })
  (* Coordinator-bound replies; a participant never consumes them. *)
  | Vote _ | Decision_ack _ -> ()
  | _ -> ()

let broadcast_decision t ~app (ts : txn_state) =
  ts.phase2 <- true;
  List.iter
    (fun (key, update) ->
      List.iter
        (fun replica ->
          send t ~src:app ~dst:replica
            (Decision { txid = ts.txn.Txn.id; key; update; commit = ts.all_yes }))
        (Layout.replicas (Harness.layout t.d) key))
    ts.txn.Txn.updates

let app_handler t ~node ~src:_ payload =
  match payload with
  | Vote { txid; yes; _ } -> (
    match Hashtbl.find_opt t.txns txid with
    | None -> ()
    | Some ts ->
      if not ts.phase2 then begin
        ts.votes_missing <- ts.votes_missing - 1;
        if not yes then ts.all_yes <- false;
        (* 2PC must hear from every replica before deciding. *)
        if ts.votes_missing = 0 then broadcast_decision t ~app:node ts
      end)
  | Decision_ack { txid; _ } -> (
    match Hashtbl.find_opt t.txns txid with
    | None -> ()
    | Some ts ->
      ts.acks_missing <- ts.acks_missing - 1;
      if ts.acks_missing = 0 then begin
        Hashtbl.remove t.txns txid;
        ts.cb (if ts.all_yes then Txn.Committed else Txn.Aborted Txn.Conflict)
      end)
  (* Participant-bound requests; the coordinator never consumes them. *)
  | Prepare _ | Decision _ -> ()
  | _ -> ()

let submit t ~dc (txn : Txn.t) cb =
  if Txn.is_read_only txn then
    Runtime.spawn (Harness.runtime t.d) (fun () -> cb Txn.Committed)
  else begin
    let replication = Layout.num_dcs (Harness.layout t.d) in
    let total = replication * List.length txn.Txn.updates in
    let ts =
      { txn; cb; votes_missing = total; all_yes = true; phase2 = false; acks_missing = total }
    in
    Hashtbl.replace t.txns txn.Txn.id ts;
    let app = Harness.app_node t.d ~dc in
    List.iter
      (fun (key, update) ->
        List.iter
          (fun replica -> send t ~src:app ~dst:replica (Prepare { txid = txn.Txn.id; key; update }))
          (Layout.replicas (Harness.layout t.d) key))
      txn.Txn.updates
  end

let create d =
  let storage_nodes = Layout.num_storage_nodes (Harness.layout d) in
  let t =
    { d; locks = Array.init storage_nodes (fun _ -> Key.Tbl.create 64); txns = Hashtbl.create 256 }
  in
  Harness.install d ~storage:(storage_handler t) ~app:(app_handler t);
  t

let locks_held t = Array.fold_left (fun acc tbl -> acc + Key.Tbl.length tbl) 0 t.locks
