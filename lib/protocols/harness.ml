open Mdcc_storage
module Cluster = Mdcc_core.Cluster
module Layout = Cluster.Layout
module Coordinator = Mdcc_core.Coordinator
module Messages = Mdcc_core.Messages
module Runtime = Mdcc_core.Runtime

type t = {
  name : string;
  engine : Mdcc_sim.Engine.t;
  num_dcs : int;
  submit : dc:int -> Txn.t -> (Txn.outcome -> unit) -> unit;
  read_local : dc:int -> Key.t -> ((Value.t * int) option -> unit) -> unit;
  peek : dc:int -> Key.t -> (Value.t * int) option;
  load : (Key.t * Value.t) list -> unit;
  fail_dc : int -> unit;
  recover_dc : int -> unit;
}

(* Round-robins over each data center's app servers: the rank to use next. *)
let round_robin layout =
  let per_dc = Layout.app_servers_per_dc layout in
  let next = Array.make (Layout.num_dcs layout) 0 in
  fun dc ->
    let rank = next.(dc) mod per_dc in
    next.(dc) <- next.(dc) + 1;
    rank

let of_mdcc cluster ~name =
  let rank = round_robin (Cluster.layout cluster) in
  let pick dc = Cluster.coordinator cluster ~dc ~rank:(rank dc) in
  {
    name;
    engine = Cluster.engine cluster;
    num_dcs = Cluster.num_dcs cluster;
    submit = (fun ~dc txn cb -> Coordinator.submit (pick dc) txn cb);
    read_local = (fun ~dc key cb -> Coordinator.read ~level:`Local (pick dc) key cb);
    peek = (fun ~dc key -> Cluster.peek cluster ~dc key);
    load = (fun rows -> Cluster.load cluster rows);
    fail_dc = (fun dc -> Cluster.fail_dc cluster dc);
    recover_dc = (fun dc -> Cluster.recover_dc cluster dc);
  }

type deployment = {
  runtime : Runtime.t;
  layout : Layout.t;
  schema : Schema.t;
  stores : Store.t array;  (* indexed by storage node id *)
  reads : (int, (Value.t * int) option -> unit) Hashtbl.t;
  mutable next_rid : int;
  app_rank : int -> int;
}

let deploy ~runtime ~layout ~schema =
  {
    runtime;
    layout;
    schema;
    stores = Array.init (Layout.num_storage_nodes layout) (fun _ -> Store.create schema);
    reads = Hashtbl.create 64;
    next_rid = 0;
    app_rank = round_robin layout;
  }

let runtime d = d.runtime
let layout d = d.layout
let schema d = d.schema
let store d node = d.stores.(node)
let app_node d ~dc = Layout.app_node d.layout ~dc ~rank:(d.app_rank dc)

let install d ~storage ~app =
  Array.iteri
    (fun node store ->
      Runtime.register d.runtime node (fun ~src payload ->
          match payload with
          | Messages.Read_request { rid; key } ->
            let row = Store.ensure store key in
            Runtime.send d.runtime ~src:node ~dst:src
              (Messages.Read_reply
                 { rid; key; value = row.Store.value; version = row.Store.version;
                   exists = row.Store.exists })
          | _ -> storage ~node ~src payload))
    d.stores;
  for dc = 0 to Layout.num_dcs d.layout - 1 do
    for rank = 0 to Layout.app_servers_per_dc d.layout - 1 do
      let node = Layout.app_node d.layout ~dc ~rank in
      Runtime.register d.runtime node (fun ~src payload ->
          match payload with
          | Messages.Read_reply { rid; value; version; exists; _ } -> (
            match Hashtbl.find_opt d.reads rid with
            | Some cb ->
              Hashtbl.remove d.reads rid;
              cb (if exists then Some (value, version) else None)
            | None -> ())
          | _ -> app ~node ~src payload)
    done
  done

(* Reads are the same in every protocol of the paper: read-committed, from
   the replica in the client's data center, sent from its first app
   server. *)
let read_local d ~dc key cb =
  let rid = d.next_rid in
  d.next_rid <- d.next_rid + 1;
  Hashtbl.replace d.reads rid cb;
  Runtime.send d.runtime ~src:(Layout.app_node d.layout ~dc ~rank:0)
    ~dst:(Layout.local_node d.layout ~dc key) (Messages.Read_request { rid; key })

let load d rows =
  List.iter
    (fun (key, value) ->
      List.iter
        (fun node ->
          let row = Store.ensure d.stores.(node) key in
          row.Store.value <- value;
          row.Store.version <- 1;
          row.Store.exists <- true)
        (Layout.replicas d.layout key))
    rows

let of_deployment d ~name ~engine ~fail_dc ~recover_dc submit =
  {
    name;
    engine;
    num_dcs = Layout.num_dcs d.layout;
    submit;
    read_local = read_local d;
    peek = (fun ~dc key -> Store.read d.stores.(Layout.local_node d.layout ~dc key) key);
    load = load d;
    fail_dc;
    recover_dc;
  }
