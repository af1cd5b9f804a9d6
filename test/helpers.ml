(* Shared fixtures for the protocol test suites. *)

open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator

let item i = Key.make ~table:"item" ~id:(string_of_int i)

let stock_schema =
  Schema.create
    [
      {
        Schema.name = "item";
        bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = None } ];
        master_dc = 0;
      };
      { Schema.name = "order"; bounds = []; master_dc = 0 };
    ]

let item_row stock = Value.of_list [ ("stock", Value.Int stock) ]

(* A runtime at time 0 whose sends go nowhere, whose timers never fire and
   whose trace lines fail the test: with tracing off, nothing may format
   one.  [handler] receives the registered message handler. *)
let silent_runtime handler =
  Mdcc_core.Runtime.make
    ~now:(fun () -> 0.0)
    ~send:(fun ~src:_ ~dst:_ _ -> ())
    ~register:(fun _ h -> handler := h)
    ~set_timer:(fun ~after:_ _ -> ignore)
    ~spawn:(fun f -> f ())
    ~rng:(Mdcc_util.Rng.create 1) ~dc_of:(fun _ -> 0)
    ~trace:(fun ~tag _ -> Alcotest.failf "trace line from %s with tracing off" tag)
    ~tracing:(fun () -> false)
    ()

(* A 5-DC cluster with [items] stock rows pre-loaded. *)
let make_cluster ?(seed = 42) ?(mode = Config.Full) ?(gamma = 100) ?learn_timeout ?txn_timeout
    ?dangling_scan_every ?(maintenance = false) ?master_dc_of ?(partitions = 1) ?(items = 0)
    ?(stock = 100) ?drop_probability ?ctx () =
  let engine = Engine.create ~seed in
  let config =
    Config.make ~mode ~gamma ?learn_timeout ?txn_timeout ?dangling_scan_every ~replication:5 ()
  in
  let cluster =
    Cluster.create ~engine
      ~spec:(Cluster.Spec.make ?master_dc_of ?drop_probability ~partitions ())
      ?ctx ~config ~schema:stock_schema ()
  in
  if items > 0 then
    Cluster.load cluster (List.init items (fun i -> (item i, item_row stock)));
  if maintenance then Cluster.start_maintenance cluster;
  (engine, cluster)

let txid =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Printf.sprintf "t%d" !counter

(* Submit and run the simulation until the outcome callback fires. *)
let run_txn engine cluster ~dc updates =
  let coordinator = Cluster.coordinator cluster ~dc ~rank:0 in
  let result = ref None in
  Coordinator.submit coordinator
    (Txn.make ~id:(txid ()) ~updates)
    (fun outcome -> result := Some outcome);
  Engine.run ~until:(Engine.now engine +. 60_000.0) engine;
  match !result with
  | Some outcome -> outcome
  | None -> Alcotest.fail "transaction never decided"

(* Submit several transactions at once, then run to quiescence. *)
let run_txns engine cluster ~dc updates_list =
  let coordinator = Cluster.coordinator cluster ~dc ~rank:0 in
  let results = Array.make (List.length updates_list) None in
  List.iteri
    (fun i updates ->
      Coordinator.submit coordinator
        (Txn.make ~id:(txid ()) ~updates)
        (fun outcome -> results.(i) <- Some outcome))
    updates_list;
  Engine.run ~until:(Engine.now engine +. 120_000.0) engine;
  Array.to_list results
  |> List.map (function Some o -> o | None -> Alcotest.fail "transaction never decided")

let is_committed = function Txn.Committed -> true | Txn.Aborted _ -> false

let outcome_testable =
  Alcotest.testable Txn.pp_outcome (fun a b ->
      match (a, b) with
      | Txn.Committed, Txn.Committed -> true
      | Txn.Aborted _, Txn.Aborted _ -> true
      | Txn.Committed, Txn.Aborted _ | Txn.Aborted _, Txn.Committed -> false)

let stock_at cluster ~dc i =
  match Cluster.peek cluster ~dc (item i) with
  | Some (v, _) -> Value.get_int v "stock"
  | None -> Alcotest.fail "item missing"

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0
