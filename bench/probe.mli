(** The allocation probes: one fixture per measured path, shared by the
    events micro-benchmark ([bench_events.exe], whose output is the
    [BENCH_events.json] ledger) and the allocation ceilings of
    [test/t_alloc.ml].

    A probe is a name, an op count and a [setup].  [setup] builds its
    fixture, warms it outside the measured region and returns the thunk to
    measure; one call of that thunk performs [ops] operations.  A probe
    checks its own fixture (every message delivered, every commit
    committed, the records in the state the name promises) and raises
    [Failure] when it does not hold.  Minor words per op are deterministic
    for a given build; wall time is not.

    The sections of {!all}, in order:

    - [queue_push_pop]: push [ops/2] events at pseudo-random times, pop
      them all.
    - [queue_cancel]: push [ops/3], cancel every other handle (the
      compaction path), drain the rest.
    - [engine_dispatch]: 64 self-rescheduling timers executing [ops]
      events through [Engine.run].
    - [network_send]: ping-pong over a 2-DC topology, eight chains,
      [ops] messages sent, scheduled and delivered.  A message in flight
      is a pooled heap record and the jitter draw writes into a cell, so
      a warm pool allocates nothing.
    - [loop_send]: the same ping-pong through the socket runtime
      ([Runtime.send] on [Loop.runtime], delivered by
      [Loop.poll ~max_wait_ms:0.0]) with the traffic meter on.
    - [visibility_hot_key]: 2,000 committed visibilities, one at a time,
      on a record whose applied set already holds 10,000 entries.
    - [visibility_void_hot_key]: 2,000 voided visibilities on a record
      that already holds 10,000 voided outcomes: the abort path's
      allocation must not grow with the record's history.  Its time does:
      each void walks the record's decided log, which here is far longer
      than any a workload builds (49 entries at most in a hotspot run).
    - [dangling_scan_idle]: dangling-transaction scans over 10,000
      records, each with one pending option younger than the
      transaction timeout (one op = one scan).  A walk that finds
      nothing stale allocates nothing per record.
    - [maintenance_tick_idle]: [ops] maintenance ticks on the simulator's
      runtime of a node whose 10,000 records each saw one committed
      option and hold none pending.  The tick re-arms its engine event
      and the idle node skips the scan, so it allocates nothing.
    - [fast_vote]: 20,000 fast proposals, each followed by its committed
      Visibility, on 1,000 warm records of {!sim_node} (one op = one
      vote): the reply and the visibility's applied-set insert.
    - [span_event]: protocol events through [Ctx.emit] into a span store,
      alternately a fast [Voted] and an [Applied], on open spans.
    - [fast_path_commit]: 1,000 three-key stock-decrement transactions
      committed one after another on the simulated five-region cluster
      with the traffic meter on (one op = one commit).
    - [classic_commit]: the same through stable masters ([Config.Multi]).
    - [classic_contended]: 1,000 one-key stock decrements through one
      stable master (every key mastered in us-west), submitted eight at a
      time on distinct keys, so eight classic rounds are in flight at
      once: the two nearest replicas hear each Phase 2a at once, and the
      two far ones one Batch of eight when the epoch ends (one op = one
      commit).
    - [closed_loop_commit]: the [fast_path_commit] transactions by one
      closed-loop client, each submitted from the previous one's
      callback, so its proposals leave folded with that one's
      Visibilities, one message per replica (one op = one commit).
    - [session_read_fresh]: [ops] {!Mdcc_core.Session} reads at DC 0's
      app server of the simulated five-region cluster, over 1,000 rows
      whose co-located replica already meets the session's watermark
      (one op = one read, answered in process with no message).
    - [rng_lognormal]: [ops] latency-jitter draws.
    - [wire_parse]: 100,000 wire requests, 80 % [get] and 20 % [set] of
      64-byte values over 500 keys, through {!parse_in_chunks} (one op =
      one request).
    - [chaos_run]: 20 chaos runs of {!chaos_spec}, each [Runner.run]
      whole: deployment, run, history, spans and checks (one op = one
      run). *)

type t = { name : string; ops : int; setup : unit -> unit -> unit }

type sample = { wall_s : float; minor_words_per_op : float }

val run : t -> sample
(** [setup], then one call of the measured thunk between two readings of
    the wall clock and of [Gc.minor_words]. *)

val ops : int
(** 300,000: the op count {!all} gives every probe that takes one. *)

val all : t list
(** The nineteen sections above, in ledger order. *)

(** {1 Probes the allocation ceilings run at a smaller count} *)

val network_send : ops:int -> t
val loop_send : ops:int -> t
val dangling_scan_idle : scans:int -> t
val maintenance_tick_idle : ops:int -> t
val session_read_fresh : reads:int -> t

(** {1 Probes the allocation ceilings run as they are} *)

val visibility_hot_key : t
val visibility_void_hot_key : t

val fast_commit_one_key : t
(** [fast_path_commit] with one key per transaction: every step sends at
    most one message per destination, so nothing is folded into a
    Batch.  Not a ledger section. *)

(** {1 Fixtures the ceilings measure in parts} *)

val sim_node : unit -> Mdcc_sim.Network.payload array -> unit
(** A storage node (node 0, replication 5) over the simulator's runtime,
    beside a silent node 1 that coordinates and masters every key.  The
    returned function has node 1 send each message to node 0 in order,
    then runs the engine until every message and reply is delivered. *)

val chaos_spec : Mdcc_chaos.Runner.spec
(** The default chaos run: seed 1, the [clean] scenario, 40 transactions
    on 4 items. *)

val chaos_history : unit -> Mdcc_core.History.t
(** The history of {!chaos_spec}'s deployment ([Runner.deploy]) after its
    40 transactions, submitted one at a time from DC [i mod 5] and each
    run to its end: even ones decrement a stock, odd ones rewrite one
    item after reading it and the next. *)

val parse_in_chunks : bytes -> unit -> unit
(** A fresh wire parser and the thunk that feeds it the whole stream in
    the socket loop's 64 KiB read chunks, draining it after each. *)
