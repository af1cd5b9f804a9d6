(** The chaos runner: one seeded, fully deterministic fault-injection run.

    A run builds the paper's 5-DC cluster with a {!Mdcc_core.History.t}
    recorder wired in, drives a scripted workload of concurrent transactions
    from random data centers, injects the scenario's fault schedule, then
    heals every fault, lets recovery and anti-entropy quiesce the system,
    and finally checks the recorded history ({!Checker}) plus the live final
    state (replica convergence, delta accounting, liveness).

    Everything — workload, fault schedule, network jitter, message drops —
    derives from [spec.seed], so a violating seed reproduces its violation
    exactly, including with tracing enabled. *)

open Mdcc_storage

type workload =
  | Deltas  (** commutative decrements against [stock >= 0] (demarcation) *)
  | Rmw  (** serializable read-modify-writes with read guards *)
  | Mixed  (** both, on disjoint key sets *)

type spec = {
  seed : int;
  scenario : Nemesis.scenario;
  workload : workload;
  txns : int;  (** transactions submitted over the horizon *)
  items : int;  (** pre-loaded stock rows *)
  partitions : int;
      (** keyspace hash partitions; the run uses
          [max partitions scenario.sc_partitions], so shard scenarios get a
          multi-partition cluster even at the default *)
  fast_quorum_override : int option;  (** plant a protocol bug (see Config) *)
  capture_trace : bool;  (** record the interleaved protocol trace *)
}

val spec :
  ?workload:workload ->
  ?txns:int ->
  ?items:int ->
  ?partitions:int ->
  ?fast_quorum_override:int ->
  ?capture_trace:bool ->
  seed:int ->
  scenario:Nemesis.scenario ->
  unit ->
  spec
(** Defaults: [Mixed] workload, 40 txns, 4 items, 1 partition, no
    override, no trace.  Every run starts each item at stock 60, submits
    and injects faults over a 10 s horizon, heals, and drains for 60 s in
    [Full] mode. *)

val stock : int
(** Every item's initial stock, 60. *)

val horizon : float
(** The submission and fault window, 10,000 ms; healing starts after it. *)

val drain : float
(** The time after [horizon] for recovery to quiesce, 60,000 ms. *)

val effective_partitions : spec -> int
(** [max spec.partitions spec.scenario.sc_partitions] — the partition count
    the run actually deploys. *)

val item : int -> Key.t
val item_row : int -> Value.t

val stock_schema : Schema.t
(** The fixture of every chaos run, MDCC's and {!Baseline}'s: [item i]
    rows holding [item_row stock] in an ["item"] table bounded by
    [stock >= 0]. *)

val deploy : spec -> engine:Mdcc_sim.Engine.t -> ctx:Mdcc_core.Ctx.t -> Mdcc_core.Cluster.t
(** The deployment of a run, built as {!run} builds it: the five-DC
    cluster of {!effective_partitions} partitions over {!stock_schema},
    with the run's timeouts and the spec's fast-quorum override, not yet
    loaded. *)

type report = {
  r_seed : int;
  r_scenario : string;
  r_schedule : Nemesis.schedule;  (** the generated fault schedule *)
  r_submitted : int;
  r_committed : int;
  r_aborted : int;
  r_undecided : int;  (** submitted but never decided (liveness violation) *)
  r_events : int;  (** history length *)
  r_violations : Checker.violation list;
  r_trace : string list;  (** captured trace lines (empty unless requested) *)
  r_obs : Mdcc_obs.Obs.t;
      (** the run's private observability handle (spans enabled): protocol
          counters plus per-transaction causal span trees *)
}

val run : spec -> report
(** The run, then the checks in report order: {!Checker.check} on the
    history, {!post_drain_checks}, and MDCC's own [repair] check (no replica
    pair still marked diverged).  A {!Mdcc_util.Invariant.Violation} raised
    inside the run ends it instead: it is emitted as an [Event.Violation] on
    the cluster's stream at that instant (history entry and [invariant]
    trace line), and the report's only violation is [invariant], with the
    checks skipped.  The profiler sees a run as three phases:
    [runner.setup] (deployment, fault schedule and clients), the engine's
    [engine.run], and [runner.checks]. *)

val post_drain_checks :
  peek:(dc:int -> Key.t -> (Value.t * int) option) ->
  dcs:int ->
  items:int ->
  delta_items:int list ->
  stock:int ->
  submitted:int ->
  (Txn.t * Txn.outcome) list ->
  Checker.violation list
(** The checks on the live final state of any run over the fixture, given
    the decided transactions: [liveness] (every submitted transaction
    decided), [convergence] (every DC's [item i] for [i < items] matches
    DC 0's, value and version) and [accounting] (the stock of each delta
    item only ever written commutatively is [stock] plus its committed
    deltas).  Violations come in that order. *)

val ok : report -> bool
(** No violations. *)

val report_to_string : ?verbose:bool -> report -> string
(** One line per run; [verbose] adds the fault schedule, violations, and the
    run's metrics snapshot and span trees (so a violating seed's report is a
    complete diagnosis artifact). *)

val report_to_json : report -> string
(** Self-contained JSON object (seed, scenario, schedule, counters,
    violations, trace, metrics snapshot, span trees). *)
