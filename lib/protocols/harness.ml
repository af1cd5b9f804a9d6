open Mdcc_storage
module Cluster = Mdcc_core.Cluster
module Layout = Cluster.Layout
module Coordinator = Mdcc_core.Coordinator
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
  app_rank : int -> int;
}

let deploy ~runtime ~layout ~schema =
  {
    runtime;
    layout;
    schema;
    stores = Array.init (Layout.num_storage_nodes layout) (fun _ -> Store.create schema);
    app_rank = round_robin layout;
  }

let runtime d = d.runtime
let layout d = d.layout
let schema d = d.schema
let store d node = d.stores.(node)
let app_node d ~dc = Layout.app_node d.layout ~dc ~rank:(d.app_rank dc)

let install d ~storage ~app =
  for node = 0 to Array.length d.stores - 1 do
    Runtime.register d.runtime node (storage ~node)
  done;
  for dc = 0 to Layout.num_dcs d.layout - 1 do
    for rank = 0 to Layout.app_servers_per_dc d.layout - 1 do
      let node = Layout.app_node d.layout ~dc ~rank in
      Runtime.register d.runtime node (app ~node)
    done
  done

(* Reads are the same in every protocol of the paper: read-committed, from
   the replica in the client's data center, which the app server shares
   its data center with, so the row is looked up with no message.  The
   callback still runs later, through the runtime. *)
let read_local d ~dc key cb =
  let row = Store.read d.stores.(Layout.local_node d.layout ~dc key) key in
  Runtime.spawn d.runtime (fun () -> cb row)

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
