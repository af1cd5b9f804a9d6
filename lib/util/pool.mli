(** Work-stealing worker pool on OCaml 5 domains.

    A pool of [jobs] domains (the caller participates, so [jobs - 1] are
    spawned) drains indexed task batches by atomic work stealing: every
    participant claims the next unclaimed task index until none remain.
    Results are merged {e in task-index order}, so a parallel {!map_list}
    returns byte-for-byte what the sequential loop would — the
    repository's determinism contract holds under [--jobs N].

    Each seeded simulation is an independent single-threaded run; domain
    safety only requires that runs not share ambient state.  All ambient
    state in this repo (the [Network] trace context, the [Prof] profiler
    and its clock) lives in [Domain.DLS], so a fresh worker domain starts
    from the same defaults a fresh process would.  Lint rule R4 keeps it
    that way.  A run's trace-line sink, history and observability handle
    are not ambient: they are values in its [Ctx].  Since a worker's
    profiler starts off, every pool map in the repository goes through
    [Mdcc_obs.Prof.map_list], which is {!map_list} while profiling is off
    and otherwise groups the elements and carries each group's profile
    home to the caller. *)

type t

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core for
    the rest of the process; never less than 1. *)

val create : ?jobs:int -> unit -> t
(** Spawn a persistent pool.  [jobs] defaults to {!default_jobs}; [jobs = 1]
    spawns no domains and runs every batch inline.  Violates on [jobs < 1]. *)

val jobs : t -> int

val map_list : t -> 'a list -> f:('a -> 'b) -> 'b list
(** [map_list t xs ~f] is [List.map f xs], stealing elements across the
    pool one at a time: each cursor bump claims the next unclaimed index.
    Results come back in list order.  If any task raises, the exception
    of the {e lowest} failing index is re-raised (with its backtrace)
    after the batch drains, the same exception a sequential loop would
    have raised first.  Tasks must not share mutable state; each [f x]
    runs on an arbitrary domain. *)

val chunks : int -> 'a list -> 'a list list
(** [chunks n xs] splits [xs] into consecutive groups of [n], in order;
    the last may be shorter.  Regroups a flattened (outer x inner) task
    list by outer key, or batches tasks into profiled groups.  Violates
    on [n < 1]. *)

val shutdown : t -> unit
(** Park and join the worker domains.  The pool is unusable afterwards. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always [shutdown] (even on exceptions). *)

type stats = { batches : int; tasks : int; stolen : int }
(** Lifetime work accounting: batches submitted, tasks claimed, and the
    subset of tasks claimed by a spawned worker rather than the calling
    domain ([stolen = 0] when [jobs = 1]). *)

val stats : t -> stats
(** Snapshot of the pool's counters.  Read by [Mdcc_obs.Prof.map_list]
    ([lib/obs] depends on this library, so the pool cannot call the
    profiler itself); values only ever increase. *)
