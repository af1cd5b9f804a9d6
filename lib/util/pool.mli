(** Fork-join maps on OCaml 5 domains.

    {!map_list} spawns its helper domains for one map, shares the
    elements out one at a time through an atomic cursor, and joins every
    helper before it returns.  Results are merged {e in list order}, so a
    parallel map returns byte-for-byte what the sequential loop would —
    the repository's determinism contract holds under [--jobs N].

    Each seeded simulation is an independent single-threaded run; domain
    safety only requires that runs not share ambient state.  All ambient
    state in this repo (the [Network] trace context, the [Prof] profiler
    and its clock) lives in [Domain.DLS], so a fresh helper domain starts
    from the same defaults a fresh process would.  Lint rule R4 keeps it
    that way.  A run's trace-line sink, history and observability handle
    are not ambient: they are values in its [Ctx].  Since a helper's
    profiler starts off, every map in the repository goes through
    [Mdcc_obs.Prof.map_list], which is {!map_list} while profiling is off
    and otherwise groups the elements and carries each group's profile
    home to the caller. *)

val default_jobs : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]: leave one core for
    the rest of the process; never less than 1. *)

val map_list : jobs:int -> 'a list -> f:('a -> 'b) -> 'b list
(** [map_list ~jobs xs ~f] is [List.map f xs] on [min jobs n] domains for
    a list of [n]: the caller and [min jobs n - 1] freshly spawned
    helpers claim the next unclaimed index, one per cursor bump, until
    none remain, and the caller joins every helper before returning.
    [jobs = 1] spawns nothing and runs every element on the caller.
    Results come back in list order.  If any element raises, the
    exception of the {e lowest} failing index is re-raised (with its
    backtrace) once every helper has joined: the exception a sequential
    loop would have raised first.  Elements must not share mutable state;
    each [f x] runs on an arbitrary domain.  Violates on [jobs < 1]. *)

val chunks : int -> 'a list -> 'a list list
(** [chunks n xs] splits [xs] into consecutive groups of [n], in order;
    the last may be shorter.  Regroups a flattened (outer x inner) task
    list by outer key, or batches tasks into profiled groups.  Violates
    on [n < 1]. *)
