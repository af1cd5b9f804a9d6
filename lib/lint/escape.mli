(** R5 — domain safety: a syntactic escape analysis flagging mutable state
    captured by closures that run on other domains ([Mdcc_util.Pool] tasks,
    [Domain.spawn] bodies, [Loop.post] thunks).

    Two rule ids: [R5-capture] (a local visibly bound to a mutable
    constructor is captured by a task closure) and [R5-mutate] (a task
    closure assigns through a captured variable).  [Atomic.make] values are
    exempt, closures touching [Mutex.*] are skipped as
    explicitly-synchronised, and anything bound inside the closure is
    task-local and never flagged.

    Spawner-ness is contagious along the call graph: {!edges} records, per
    file, which top-level functions forward a parameter into a spawner
    call, and {!link} closes the set over all files from the base spawners
    — so a wrapper like [Experiments.par_map] makes its own call sites
    spawn sites. *)

type summary
(** Per-file call-graph edges feeding the link fixpoint. *)

type spawners
(** Link result: the closed set of functions that run closures on other
    domains. *)

val edges : rel:string -> Parsetree.structure -> summary

val link : edges:summary list -> spawners

val check : spawners -> rel:string -> Parsetree.structure -> Finding.t list
(** [R5-*] findings for one file. *)
