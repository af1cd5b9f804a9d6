(** Parallel seed sweeps: one fork-join map over OCaml 5 domains.

    A sweep is an embarrassingly parallel list of independent seeded runs.
    {!run} farms the specs across domains and returns reports {e in
    spec order} (the map merges by list index), so every downstream
    rendering — per-run report lines, the [--obs-out] document — is
    byte-identical to a sequential [--jobs 1] sweep.  Each run is
    single-threaded on its domain; the ambient state a run touches (the
    network trace context, the profiler) is domain-local, and its trace
    sink, history and obs handle are its own [Ctx] values, so runs cannot
    cross-contaminate.  The runs map through {!Mdcc_obs.Prof.map_list},
    so a profiled sweep sees every domain's work.  An invariant that
    fires inside a run is that run's [invariant] violation
    ({!Runner.run}), not the sweep's end. *)

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

val run : ?jobs:int -> Runner.spec list -> Runner.report list
(** [run ~jobs specs] maps {!run_one} over [specs] on [jobs] domains
    (default {!Mdcc_util.Pool.default_jobs}), spawned for this map and
    joined before it returns; [jobs = 1] runs inline.  Reports come back
    in spec order, byte-identical for every [jobs].  Each run is one
    ["sweep.run_one"] profiler span. *)

val run_profiled :
  ?jobs:int -> Runner.spec list -> Runner.report list * Mdcc_obs.Prof.snapshot
(** [Mdcc_obs.Prof.with_task (fun () -> run ?jobs specs)]: {!run} maps
    through {!Mdcc_obs.Prof.map_list}, so each group of specs is one
    profiled task and the snapshot holds one ["sweep.run_one"] span
    per run whichever domain ran it.  The reports are identical to
    {!run}'s — the profile rides a separate channel so the byte-pinned
    sweep outputs are untouched by [--profile]. *)

val obs_doc : Runner.report list -> Mdcc_obs.Json.t
(** The sweep's observability export:
    [{"runs":[{seed,scenario,metrics,spans},..]}] in report order. *)
