open Mdcc_storage
open Mdcc_core
module Engine = Mdcc_sim.Engine
module Rng = Mdcc_util.Rng
module Invariant = Mdcc_util.Invariant
module Generator = Mdcc_workload.Generator
module Obs = Mdcc_obs.Obs
module Json = Mdcc_obs.Json
module Prof = Mdcc_obs.Prof

type workload = Deltas | Rmw | Mixed

type spec = {
  seed : int;
  scenario : Nemesis.scenario;
  workload : workload;
  txns : int;
  items : int;
  partitions : int;
  fast_quorum_override : int option;
  capture_trace : bool;
}

let spec ?(workload = Mixed) ?(txns = 40) ?(items = 4) ?(partitions = 1) ?fast_quorum_override
    ?(capture_trace = false) ~seed ~scenario () =
  { seed; scenario; workload; txns; items; partitions; fast_quorum_override; capture_trace }

(* Every run: initial stock per item; the submission and fault window
   (ms), after which healing starts; and the time after it for recovery
   to quiesce. *)
let stock = 60
let horizon = 10_000.0
let drain = 60_000.0

(* The deployment is at least as wide as the scenario demands: shard
   scenarios ask for a multi-partition keyspace even when the spec left
   [partitions] at its default. *)
let effective_partitions s = max s.partitions s.scenario.Nemesis.sc_partitions

type report = {
  r_seed : int;
  r_scenario : string;
  r_schedule : Nemesis.schedule;
  r_submitted : int;
  r_committed : int;
  r_aborted : int;
  r_undecided : int;
  r_events : int;
  r_violations : Checker.violation list;
  r_trace : string list;
  r_obs : Obs.t;
}

let ok r = r.r_violations = []

(* ------------------------------------------------------------------ *)
(* Fixture                                                             *)
(* ------------------------------------------------------------------ *)

let item i = Key.make ~table:"item" ~id:(string_of_int i)

let stock_schema =
  Schema.create
    [
      {
        Schema.name = "item";
        bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = None } ];
        master_dc = 0;
      };
    ]

let item_row stock = Value.of_list [ ("stock", Value.Int stock) ]

(* The delta ([~delta:true]) or read-modify-write items.  Under Mixed, even
   items take commutative deltas, odd items take serializable
   read-modify-writes.  Keeping the styles on disjoint keys keeps the
   per-key version order meaningful for the serializability check. *)
let keys s ~delta =
  let style i =
    match s.workload with Deltas -> delta | Rmw -> not delta | Mixed -> (i mod 2 = 0) = delta
  in
  List.filter style (List.init s.items Fun.id)

(* ------------------------------------------------------------------ *)
(* Post-drain checks                                                   *)
(* ------------------------------------------------------------------ *)

(* The committed delta sum on [key], or [None] when a committed
   transaction also wrote [key] non-commutatively (its final stock is then
   no function of the deltas alone). *)
let committed_deltas key decided =
  List.fold_left
    (fun acc (txn, outcome) ->
      match outcome with
      | Txn.Aborted _ -> acc
      | Txn.Committed ->
        List.fold_left
          (fun acc (k, up) ->
            match (acc, up) with
            | None, _ -> None
            | Some _, _ when not (Key.equal k key) -> acc
            | Some sum, Update.Delta ds -> Some (List.fold_left (fun a (_, d) -> a + d) sum ds)
            | Some _, (Update.Physical _ | Update.Insert _ | Update.Delete _) -> None
            | Some _, Update.Read_guard _ -> acc)
          acc txn.Txn.updates)
    (Some 0) decided

let post_drain_checks ~peek ~dcs ~items ~delta_items ~stock ~submitted decided =
  let violations = ref [] in
  let add invariant detail = violations := { Checker.invariant; detail } :: !violations in
  (* Liveness: everything submitted must have decided once all faults healed. *)
  let undecided = submitted - List.length decided in
  if undecided > 0 then
    add "liveness" (Printf.sprintf "%d of %d transactions never decided" undecided submitted);
  (* Convergence: after heal + anti-entropy + drain, every replica agrees. *)
  let version = function Some (_, v) -> Printf.sprintf "v%d" v | None -> "-" in
  for i = 0 to items - 1 do
    let reference = peek ~dc:0 (item i) in
    for dc = 1 to dcs - 1 do
      let got = peek ~dc (item i) in
      let same (v1, ver1) (v2, ver2) = Value.equal v1 v2 && ver1 = ver2 in
      if not (Option.equal same reference got) then
        add "convergence"
          (Printf.sprintf "item %d differs between dc0 (%s) and dc%d (%s)" i (version reference)
             dc (version got))
    done
  done;
  (* Delta accounting: on keys only ever written commutatively, the final
     stock must equal the initial stock plus the committed deltas. *)
  List.iter
    (fun i ->
      match committed_deltas (item i) decided with
      | None -> ()
      | Some deltas -> (
        let want = stock + deltas in
        match peek ~dc:0 (item i) with
        | Some (v, _) ->
          let got = Value.get_int v "stock" in
          if got <> want then
            add "accounting"
              (Printf.sprintf "item %d stock is %d, expected initial %d + committed deltas %d = %d"
                 i got stock deltas want)
        | None -> add "accounting" (Printf.sprintf "item %d disappeared" i)))
    delta_items;
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let build_delta_txn rng ctx keys =
  let i = List.nth keys (Rng.int rng (List.length keys)) in
  let amount = -Rng.int_in rng 1 2 in
  Txn.make ~id:(Generator.fresh_txid ctx) ~updates:[ (item i, Update.Delta [ ("stock", amount) ]) ]

(* Optimistic read-modify-write: read two records at this DC's replica (the
   optimistic-execution phase), write one with a physical update, guard the
   other — write skew would commit a conflict cycle, which the checker's
   serializability invariant must rule out. *)
let build_rmw_txn rng ctx cluster ~dc keys =
  let n = List.length keys in
  let i = List.nth keys (Rng.int rng n) in
  let j = List.nth keys (Rng.int rng n) in
  let read key =
    match Cluster.peek cluster ~dc key with Some (v, ver) -> (v, ver) | None -> (item_row 0, 0)
  in
  let v_i, ver_i = read (item i) in
  let stock = Value.get_int v_i "stock" in
  let value = Value.set v_i "stock" (Value.Int (max 0 (stock - 1))) in
  let reads =
    if j <> i then [ (item i, ver_i); (item j, snd (read (item j))) ] else [ (item i, ver_i) ]
  in
  Txn.serializable ~id:(Generator.fresh_txid ctx) ~reads
    ~updates:[ (item i, Update.Physical { vread = ver_i; value }) ]

(* A run is three profiler phases: [runner.setup] builds the cluster, the
   fault schedule and the clients, [engine.run] (the engine's own span)
   executes them, and [runner.checks] judges the result. *)
type live = {
  engine : Engine.t;
  cluster : Cluster.t;
  history : History.t;
  obs : Obs.t;
  trace_buf : string list ref;
  schedule : Nemesis.schedule;
  decided : (Txn.t * Txn.outcome) list ref;
  submitted : int;
  delta_items : int list;
}

let deploy s ~engine ~ctx =
  let config =
    Config.make ~learn_timeout:600.0 ~txn_timeout:1500.0 ~dangling_scan_every:500.0
      ?fast_quorum_override:s.fast_quorum_override ~replication:5 ()
  in
  Cluster.create ~engine
    ~spec:(Cluster.Spec.make ~partitions:(effective_partitions s) ())
    ~ctx ~config ~schema:stock_schema ()

let setup s =
  let engine = Engine.create ~seed:s.seed in
  let history = History.create () in
  (* Fresh per-run handle (spans on): two same-seed runs must render
     byte-identical metrics and span JSON, so no registry is shared. *)
  let obs = Obs.create ~spans:true () in
  (* Trace capture (the violating-seed replay path). *)
  let trace_buf = ref [] in
  let trace =
    if s.capture_trace then Some (fun line -> trace_buf := line :: !trace_buf) else None
  in
  let cluster = deploy s ~engine ~ctx:(Ctx.make ~history ~obs ?trace ()) in
  Cluster.load cluster (List.init s.items (fun i -> (item i, item_row stock)));
  Cluster.start_maintenance cluster;
  (* The fault schedule derives from the seed alone: same seed, same runs. *)
  let sched_rng = Rng.create ((s.seed * 2654435761) lxor 0x6e656d) in
  let schedule =
    s.scenario.Nemesis.sc_build ~rng:sched_rng ~cluster ~horizon
    @ [ (horizon, Nemesis.Heal_all) ]
  in
  Nemesis.install cluster schedule;
  (* After healing, two peer-directed anti-entropy sweeps (spaced so the
     first round's catchups land before the second probes). *)
  ignore (Engine.schedule_at engine ~at:(horizon +. 4_000.0) (fun () -> Cluster.sync_all cluster));
  ignore (Engine.schedule_at engine ~at:(horizon +. 12_000.0) (fun () -> Cluster.sync_all cluster));
  (* Scripted clients: [txns] transactions at random times from random DCs. *)
  let crng = Rng.create ((s.seed * 31) + 7) in
  let dcs = Cluster.num_dcs cluster in
  let ctxs =
    Array.init dcs (fun dc -> Generator.make_ctx ~rng:(Rng.split crng) ~dc ~client_id:dc)
  in
  let decided = ref [] in
  let submitted = ref 0 in
  let deltas = keys s ~delta:true and rmws = keys s ~delta:false in
  for _ = 1 to s.txns do
    let dc = Rng.int crng dcs in
    let at = Rng.float crng horizon in
    let style_delta =
      match (deltas, rmws) with
      | [], _ -> false
      | _, [] -> true
      | _, _ -> Rng.bool crng
    in
    incr submitted;
    ignore
      (Engine.schedule_at engine ~at (fun () ->
           (* Build at submission time so reads see the current local state. *)
           let txn =
             if style_delta then build_delta_txn crng ctxs.(dc) deltas
             else build_rmw_txn crng ctxs.(dc) cluster ~dc rmws
           in
           Coordinator.submit
             (Cluster.coordinator cluster ~dc ~rank:0)
             txn
             (fun outcome -> decided := (txn, outcome) :: !decided)))
  done;
  { engine; cluster; history; obs; trace_buf; schedule; decided; submitted = !submitted;
    delta_items = deltas }

let checks l ~items ~died decided =
  (* Repair (MDCC only): every divergence the anti-entropy probes detected
     must have been driven to resolution before the run ends — a nonzero
     gauge means some replica pair is still marked diverged after heal +
     sweeps. *)
  let diverged = Mdcc_obs.Registry.gauge (Obs.registry l.obs) "diverged_replicas" in
  let repair =
    if diverged = 0 then []
    else
      [ { Checker.invariant = "repair";
          detail = Printf.sprintf "diverged_replicas gauge still %d after heal + anti-entropy"
              diverged } ]
  in
  match died with
  | Some v -> [ v ]
  | None ->
    Checker.check ~bounds:(Schema.bounds_of stock_schema)
      ~partition_of:(Cluster.Layout.partition (Cluster.layout l.cluster)) l.history
    @ post_drain_checks ~peek:(Cluster.peek l.cluster) ~dcs:(Cluster.num_dcs l.cluster) ~items
        ~delta_items:l.delta_items ~stock ~submitted:l.submitted decided
    @ repair

let run s =
  let l = Prof.span "runner.setup" (fun () -> setup s) in
  (* A tagged invariant violation (Util.Invariant) ends the run where it
     fires: it lands in the history and the trace at that instant, so a
     replay shows *where* a protocol invariant died, and it is the run's
     one violation — the checks would only describe a run cut short. *)
  let died =
    match Engine.run ~until:(horizon +. drain) l.engine with
    | () -> None
    | exception Invariant.Violation v ->
      Ctx.emit (Cluster.stream l.cluster) (Event.Violation v);
      Some { Checker.invariant = "invariant"; detail = Invariant.to_string v }
  in
  let decided = !(l.decided) in
  let violations =
    Prof.span "runner.checks" (fun () -> checks l ~items:s.items ~died decided)
  in
  let committed = List.length (List.filter (fun (_, o) -> o = Txn.Committed) decided) in
  {
    r_seed = s.seed;
    r_scenario = s.scenario.Nemesis.sc_name;
    r_schedule = l.schedule;
    r_submitted = l.submitted;
    r_committed = committed;
    r_aborted = List.length decided - committed;
    r_undecided = l.submitted - List.length decided;
    r_events = History.length l.history;
    r_violations = violations;
    r_trace = List.rev !(l.trace_buf);
    r_obs = l.obs;
  }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let report_to_string ?(verbose = false) r =
  let head =
    Printf.sprintf "seed %4d  %-20s  %3d txns: %3d committed %3d aborted %d undecided  %5d events  %s"
      r.r_seed r.r_scenario r.r_submitted r.r_committed r.r_aborted r.r_undecided r.r_events
      (if r.r_violations = [] then "ok"
       else Printf.sprintf "%d VIOLATIONS" (List.length r.r_violations))
  in
  if (not verbose) && r.r_violations = [] then head
  else
    String.concat "\n"
      ((head
        :: (Printf.sprintf "  fault schedule:\n%s" (Nemesis.schedule_to_string r.r_schedule))
        :: List.map (fun v -> "  " ^ Checker.violation_to_string v) r.r_violations)
      @ (if verbose then
           [
             "  metrics: " ^ Json.to_string (Obs.metrics_json r.r_obs);
             "  spans: " ^ Json.to_string (Obs.spans_json r.r_obs);
           ]
         else []))

let report_to_json r =
  let int name v = (name, Json.Int v) in
  let fault (t, f) =
    (* One decimal, as the text schedule prints it. *)
    Json.Obj
      [ ("at", Json.Float (Float.round (t *. 10.) /. 10.)); ("fault", Json.Str (Nemesis.label f)) ]
  in
  let violation (v : Checker.violation) =
    Json.Obj [ ("invariant", Json.Str v.invariant); ("detail", Json.Str v.detail) ]
  in
  Json.to_string
    (Json.Obj
       [ int "seed" r.r_seed; ("scenario", Json.Str r.r_scenario); int "submitted" r.r_submitted;
         int "committed" r.r_committed; int "aborted" r.r_aborted;
         int "undecided" r.r_undecided; int "events" r.r_events;
         ("schedule", Json.List (List.map fault r.r_schedule));
         ("violations", Json.List (List.map violation r.r_violations));
         ("trace", Json.List (List.map (fun l -> Json.Str l) r.r_trace));
         ("metrics", Obs.metrics_json r.r_obs); ("spans", Obs.spans_json r.r_obs) ])
