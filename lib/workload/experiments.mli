(** Reproductions of every figure/table in the paper's evaluation (§5).

    Each function runs the experiment on the simulated 5-region deployment,
    prints the same rows/series the paper reports (plus the paper's own
    numbers for comparison), and returns the measured data for programmatic
    checks.  [quick:true] shrinks clients/duration for use in tests; the
    default scale is the benchmark scale recorded in EXPERIMENTS.md.

    Every driver takes [obs], the handle its protocol metrics are exported
    into, and [jobs] (default 1), the domains its independent simulations
    fan out over in one {!Mdcc_obs.Prof.map_list}.  Each simulation gets a
    fresh {!Mdcc_obs.Obs.t}; the handles are merged into [obs] in task
    order once the map returns, so metric exports are byte-identical for
    every [jobs].  {!fig8} is one simulation: it runs directly against
    [obs] and ignores [jobs].

    Correspondence:
    {ul
    {- {!fig3} — TPC-W write-transaction response-time CDF (QW-3, QW-4,
       MDCC, 2PC, Megastore), §5.2.1;}
    {- {!fig4} — TPC-W throughput scale-out (50/100/200 clients), §5.2.2;}
    {- {!fig5} — micro-benchmark response-time CDF (MDCC, Fast, Multi,
       2PC), §5.3.1;}
    {- {!fig6} — commits/aborts vs. hot-spot size, §5.3.2;}
    {- {!fig7} — response-time box plots vs. master locality, §5.3.3;}
    {- {!fig8} — latency time-series across a data-center failure, §5.3.4;}
    {- {!ablation_gamma} — extra ablation: sensitivity to the fast-policy
       window γ (DESIGN.md §5).}} *)

type latency_row = {
  proto : string;
  summary : Mdcc_util.Stats.summary option;
  cdf : (float * float) list;
  commits : int;
  aborts : int;
}

type 'a driver = ?quick:bool -> ?jobs:int -> obs:Mdcc_obs.Obs.t -> unit -> 'a
(** A figure or ablation: it runs, prints its table and returns its data. *)

val tpcw_point : items:int -> partitions:int -> clients:int -> Metrics.t * float
(** One MDCC TPC-W run with [clients] spread evenly over the five data
    centers and [items] hash-sharded over [partitions] replica groups, at
    the quick tier's seed and windows: the run's metrics and its
    committed transactions per second.  The sharded scale-out bench
    ([bench/bench_shard.exe]) is a series of these. *)

val fig3 : latency_row list driver

val fig4 : (string * (int * float) list) list driver
(** Per protocol: [(concurrent clients, committed txn/s)] at each scale
    point. *)

val fig5 : latency_row list driver

val fig6 : (float * (string * int * int) list) list driver
(** Per hot-spot size: [(protocol, commits, aborts)]. *)

val fig7 : (float * (string * Mdcc_util.Stats.boxplot) list) list driver
(** Per locality fraction: [(protocol, latency box plot)]. *)

val fig8 : (float * float * Mdcc_util.Stats.series_bucket list) driver
(** Mean commit latency before / after the US-East outage, plus the 10 s
    time-series buckets. *)

val ablation_gamma : (int * (int * int * float)) list driver
(** Per γ: (commits, aborts, median latency) on the contended micro
    workload. *)

val ablation_replication : (int * int * float) list driver
(** Per replication factor (3 vs. 5 data centers): (commits, median
    latency).  DESIGN.md's quorum-size ablation: with n=3 the fast quorum
    is all three replicas, so the fast path has no slack. *)

type experiment = {
  id : string;  (** the name [experiments_cli run] takes *)
  doc : string;  (** one line for [experiments_cli list] *)
  run : unit driver;  (** the driver above, its result dropped *)
}

val all : experiment list
(** Every experiment above, in the order [experiments_cli run --all]
    runs them. *)

val demo :
  ?trace:(string -> unit) -> on_decided:(Mdcc_storage.Txn.outcome -> float -> unit) -> unit -> unit
(** The single transaction of [experiments_cli demo]: a delta on [item/0]
    and a physical update of [item/1], submitted from DC 2 of the default
    five-DC cluster (engine seed 1) and run for 10 s of virtual time.
    [trace] receives every protocol trace line as it happens (the cluster's
    {!Mdcc_core.Ctx.make}[ ?trace]); [on_decided] gets the outcome and the
    virtual time, in ms, at which the coordinator decided it. *)
