(** Work-stealing worker pool on OCaml 5 domains.

    A pool of [jobs] domains (the caller participates, so [jobs - 1] are
    spawned) drains indexed task batches by atomic work stealing: every
    participant claims the next unclaimed task index until none remain.
    Results are merged {e in task-index order}, so a parallel {!map} returns
    byte-for-byte what the sequential loop would — the repository's
    determinism contract holds under [--jobs N].

    Each seeded simulation is an independent single-threaded run; domain
    safety only requires that runs not share ambient state.  All ambient
    state in this repo (the [Network] trace context, the [Prof] profiler
    and its clock) lives in [Domain.DLS], so a fresh worker domain starts
    from the same defaults a fresh process would.  Lint rule R4 keeps it
    that way.  A run's trace-line sink, history and observability handle
    are not ambient: they are values in its [Ctx].  Since a worker's
    profiler starts off, callers map through [Mdcc_obs.Prof.map_list],
    which is {!map_list} while profiling is off and otherwise carries
    each chunk's profile home to the caller. *)

type t

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core for
    the rest of the process; never less than 1. *)

val create : ?jobs:int -> unit -> t
(** Spawn a persistent pool.  [jobs] defaults to {!default_jobs}; [jobs = 1]
    spawns no domains and runs every batch inline.  Violates on [jobs < 1]. *)

val jobs : t -> int

val map : t -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [map t n f] computes [|f 0; ...; f (n-1)|], stealing indices across the
    pool.  [chunk] (default 1) is how many {e consecutive} indices one
    cursor bump claims: coarse chunks cut contention on the shared cursor
    from [n] atomic increments to [n/chunk], at the cost of coarser load
    balancing.  Results, order and exception semantics are independent of
    [chunk] — if any task raises, the exception of the {e lowest} failing
    index is re-raised (with its backtrace) after the batch drains, the
    same exception a sequential loop would have raised first.  Violates on
    [chunk < 1].  Tasks must not share mutable state; each [f i] runs on
    an arbitrary domain. *)

val map_list : t -> ?chunk:int -> 'a list -> f:('a -> 'b) -> 'b list
(** {!map} over a list, preserving order. *)

val chunks : int -> 'a list -> 'a list list
(** [chunks n xs] splits [xs] into consecutive groups of [n], in order;
    the last may be shorter.  Regroups a flattened (outer x inner) task
    list by outer key, or batches tasks.  Violates on [n < 1]. *)

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
