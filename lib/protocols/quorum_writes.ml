open Mdcc_storage
module Net = Mdcc_sim.Network
module Runtime = Mdcc_core.Runtime
module Layout = Mdcc_core.Cluster.Layout

type Net.payload +=
  | Qw_write of { wid : int; key : Key.t; update : Update.t }
  | Qw_ack of { wid : int; key : Key.t }

type write_state = {
  mutable waiting : int Key.Map.t;  (* acks still needed per key *)
  cb : Txn.outcome -> unit;
}

type t = {
  d : Harness.deployment;
  w : int;
  writes : (int, write_state) Hashtbl.t;
  mutable next_wid : int;
}

let send t ~src ~dst payload = Runtime.send (Harness.runtime t.d) ~src ~dst payload

(* Blind last-writer-wins apply: no validation of any kind. *)
let blind_apply store key (up : Update.t) =
  let row = Store.ensure store key in
  match up with
  | Update.Insert v | Update.Physical { value = v; _ } ->
    row.Store.value <- v;
    row.Store.exists <- true;
    row.Store.version <- row.Store.version + 1
  | Update.Delete _ ->
    row.Store.value <- Value.empty;
    row.Store.exists <- false;
    row.Store.version <- row.Store.version + 1
  | Update.Delta ds ->
    row.Store.value <-
      List.fold_left (fun v (attr, d) -> Value.add_delta v attr d) row.Store.value ds;
    row.Store.version <- row.Store.version + 1
  | Update.Read_guard _ -> ()

let storage_handler t ~node ~src payload =
  match payload with
  | Qw_write { wid; key; update } ->
    blind_apply (Harness.store t.d node) key update;
    send t ~src:node ~dst:src (Qw_ack { wid; key })
  (* Writer-bound ack; a storage replica never consumes it. *)
  | Qw_ack _ -> ()
  | _ -> ()

let app_handler t ~node:_ ~src:_ payload =
  match payload with
  | Qw_ack { wid; key } -> (
    match Hashtbl.find_opt t.writes wid with
    | None -> ()
    | Some ws -> (
      match Key.Map.find_opt key ws.waiting with
      | None -> ()
      | Some needed ->
        let needed = needed - 1 in
        ws.waiting <-
          (if needed <= 0 then Key.Map.remove key ws.waiting
           else Key.Map.add key needed ws.waiting);
        if Key.Map.is_empty ws.waiting then begin
          Hashtbl.remove t.writes wid;
          ws.cb Txn.Committed
        end))
  (* Replica-bound write; the app side never consumes it. *)
  | Qw_write _ -> ()
  | _ -> ()

let submit t ~dc (txn : Txn.t) cb =
  if Txn.is_read_only txn then
    Runtime.spawn (Harness.runtime t.d) (fun () -> cb Txn.Committed)
  else begin
    let wid = t.next_wid in
    t.next_wid <- t.next_wid + 1;
    let waiting =
      List.fold_left (fun m (key, _) -> Key.Map.add key t.w m) Key.Map.empty txn.Txn.updates
    in
    Hashtbl.replace t.writes wid { waiting; cb };
    let app = Harness.app_node t.d ~dc in
    List.iter
      (fun (key, update) ->
        List.iter
          (fun replica -> send t ~src:app ~dst:replica (Qw_write { wid; key; update }))
          (Layout.replicas (Harness.layout t.d) key))
      txn.Txn.updates
  end

let create d ~w =
  let t = { d; w; writes = Hashtbl.create 256; next_wid = 0 } in
  Harness.install d ~storage:(storage_handler t) ~app:(app_handler t);
  t
