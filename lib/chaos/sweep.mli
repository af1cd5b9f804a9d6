(** Parallel seed sweeps over a {!Pool.t} of domains.

    A sweep is an embarrassingly parallel list of independent seeded runs.
    {!run} farms the specs across worker domains and returns reports {e in
    spec order} ([Pool.map] merges by task index), so every downstream
    rendering — per-run report lines, the [--obs-out] document — is
    byte-identical to a sequential [--jobs 1] sweep.  Each run is
    single-threaded on its domain; the ambient state a run touches (the
    network trace context, the profiler) is domain-local, and its trace
    sink, history and obs handle are its own [Ctx] values, so runs cannot
    cross-contaminate.  An invariant that fires inside a run is
    that run's [invariant] violation ({!Runner.run}), not the sweep's
    end. *)

val specs :
  ?workload:Runner.workload ->
  ?txns:int ->
  ?items:int ->
  ?partitions:int ->
  ?fast_quorum_override:int ->
  ?capture_trace:bool ->
  seeds:int ->
  scenarios:Nemesis.scenario list ->
  unit ->
  Runner.spec list
(** The standard sweep grid, scenario-major: for each scenario in order,
    seeds [1..seeds]. *)

val run_one : Runner.spec -> Runner.report
(** One run; on a violation the same spec is re-run with trace capture so
    the report carries the full protocol interleaving.  Deterministic — the
    re-run reproduces the violation exactly; for an [invariant] violation
    its trace ends on the line where the run died. *)

val run : ?jobs:int -> ?chunk:int -> Runner.spec list -> Runner.report list
(** [run ~jobs specs] maps {!run_one} over [specs] on a fresh pool of
    [jobs] domains (default {!Mdcc_util.Pool.default_jobs}); reports come
    back in spec order.  [chunk] is the claim granularity — how many
    consecutive specs one work-stealing claim takes (default: about eight
    claims per domain, [max 1 (count / (jobs * 8))]).  Output is
    byte-identical for every [chunk] and [jobs] combination; raises
    [Invalid_argument] on [chunk < 1]. *)

val run_profiled :
  ?jobs:int ->
  ?chunk:int ->
  Runner.spec list ->
  Runner.report list * Mdcc_obs.Prof.snapshot
(** {!run} with every {e chunk} of consecutive specs bracketed by one
    {!Mdcc_obs.Prof.with_task} (so handle/snapshot overhead is amortized
    across the chunk — a pool task is a chunk here, which is what the
    [pool.tasks] counter counts); per-chunk snapshots merge in chunk
    order, plus [pool.batches] / [pool.tasks] / [pool.stolen] counters
    from the pool.  Per-run ["sweep.run_one"] spans inside the chunk keep
    phase paths and counts identical to a per-run profile.  The reports
    are identical to {!run}'s — the profile rides a separate channel so
    the byte-pinned sweep outputs are untouched by [--profile]. *)

val obs_doc : Runner.report list -> Mdcc_obs.Json.t
(** The sweep's observability export:
    [{"runs":[{seed,scenario,metrics,spans},..]}] in report order. *)
