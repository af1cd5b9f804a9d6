(** Reproductions of every figure/table in the paper's evaluation (§5).

    Each function runs the experiment on the simulated 5-region deployment,
    prints the same rows/series the paper reports (plus the paper's own
    numbers for comparison), and returns the measured data for programmatic
    checks.  [quick:true] shrinks clients/duration for use in tests; the
    default scale is the benchmark scale recorded in EXPERIMENTS.md.

    Every driver takes an optional worker [pool] ({!Mdcc_util.Pool.t}) and
    fans its independent simulations out across it.  Each simulation gets a
    fresh {!Mdcc_obs.Obs.t}; the handles are merged into the caller's
    ambient registry in task order once the batch completes, so metric
    exports are byte-identical with and without a pool.  Omitting [pool]
    runs sequentially through the same code path.

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

val tpcw_point : items:int -> partitions:int -> clients:int -> Metrics.t * float
(** One MDCC TPC-W run with [clients] spread evenly over the five data
    centers and [items] hash-sharded over [partitions] replica groups, at
    the quick tier's seed and windows: the run's metrics and its
    committed transactions per second.  The sharded scale-out bench
    ([bench/bench_shard.exe]) is a series of these. *)

val fig3 : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> latency_row list

val fig4 : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> (string * (int * float) list) list
(** Per protocol: [(concurrent clients, committed txn/s)] at each scale
    point. *)

val fig5 : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> latency_row list

val fig6 : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> (float * (string * int * int) list) list
(** Per hot-spot size: [(protocol, commits, aborts)]. *)

val fig7 : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> (float * (string * Mdcc_util.Stats.boxplot) list) list
(** Per locality fraction: [(protocol, latency box plot)]. *)

val fig8 : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> float * float * Mdcc_util.Stats.series_bucket list
(** Mean commit latency before / after the US-East outage, plus the 10 s
    time-series buckets. *)

val ablation_gamma : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> (int * (int * int * float)) list
(** Per γ: (commits, aborts, median latency) on the contended micro
    workload. *)

val ablation_batching : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> (bool * int * int * float) list
(** Per batching setting: (messages sent, commits, median latency) on the
    uniform micro workload — the message-overhead optimization from the
    paper's conclusion. *)

val ablation_replication : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> (int * int * float) list
(** Per replication factor (3 vs. 5 data centers): (commits, median
    latency).  DESIGN.md's quorum-size ablation: with n=3 the fast quorum
    is all three replicas, so the fast path has no slack. *)

val run_all : ?quick:bool -> ?pool:Mdcc_util.Pool.t -> unit -> unit
(** Every experiment in sequence (the benchmark harness entry point). *)
