(** Hierarchical per-domain profiler (off by default).

    Instrumentation points call {!span} / {!count} against the calling
    domain's ambient handle; with profiling disabled (the default) both
    collapse to a [Domain.DLS] read and a boolean test, so decorated hot
    paths cost nothing in normal runs and all byte-identity pins are
    untouched.  Enabled handles time spans with {!Clock.monotonic_ms}
    (the sanctioned clock — R1 still bans every other wall-clock read)
    and charge [Gc.minor_words] deltas per hierarchical span path.

    A helper domain starts from a fresh disabled handle, so work fanned
    out by {!Mdcc_util.Pool.map_list} reaches the caller's profile only
    through {!map_list}, which every pool map in the repository goes
    through.  Profiler output rides its own channel ([--profile FILE],
    a bench document whose sections {!sections} renders): wall time is
    not deterministic, so it must never leak into byte-pinned
    reports. *)

type t

val create : unit -> t
(** A fresh disabled handle. *)

val enabled : t -> bool
val set_enabled : t -> bool -> unit

val span_in : t -> string -> (unit -> 'a) -> 'a
(** [span_in t name f] runs [f], charging its wall time and minor
    allocation to [parent-path/name] when [t] is enabled.  Exceptions
    propagate; the span still closes. *)

val count_in : t -> ?by:int -> string -> unit

val add_in : t -> string -> int -> unit
(** [add_in t name n] is [count_in t ~by:n name] for per-message callers:
    it allocates nothing when [t] is disabled, where passing [~by] would
    build an option at the call site. *)

val ambient : unit -> t
(** The calling domain's handle.  Fresh (disabled) per domain. *)

val span : string -> (unit -> 'a) -> 'a
(** {!span_in} on the ambient handle. *)

val count : ?by:int -> string -> unit
(** {!count_in} on the ambient handle. *)

val enabled_ambient : unit -> bool

val detached : (unit -> 'a) -> 'a
(** [detached f] runs [f] with a fresh disabled handle as the calling
    domain's ambient, then restores the previous one.  Whatever [f]
    builds that resolves the ambient once at creation (an engine, an
    event queue) keeps that private handle, which nobody can enable: such
    an object may be built on one domain and driven from another without
    either writing the other's profiler state. *)

(** {2 Snapshots} *)

type phase = {
  ph_path : string;  (** "/"-joined path of enclosing spans *)
  ph_count : int;
  ph_wall_ms : float;  (** inclusive *)
  ph_self_ms : float;  (** inclusive − children, clamped ≥ 0 *)
  ph_minor_words : float;
}

type snapshot = {
  sn_phases : phase list;  (** sorted by [ph_path] *)
  sn_counters : (string * int) list;  (** sorted by name *)
}

val empty_snapshot : snapshot

val capture : t -> snapshot
(** Immutable copy of [t]'s accumulators, sorted. *)

val with_task : (unit -> 'a) -> 'a * snapshot
(** Install a fresh {e enabled} handle as the calling domain's ambient,
    run [f], capture, and restore the previous handle (also on
    exceptions, though the snapshot is then lost).  When the previous
    handle was disabled (the outermost bracket) the snapshot gains
    [gc.minor_collections] / [gc.major_collections] /
    [gc.promoted_words] counters from a [Gc.quick_stat] bracket — taken
    only at this coarse boundary because [quick_stat] itself allocates,
    and only once because it counts for the whole process. *)

val map_list : jobs:int -> 'a list -> f:('a -> 'b) -> 'b list
(** [map_list ~jobs xs ~f] is [Pool.map_list ~jobs xs ~f] while the
    calling domain's profiler is off.  While it is on, the elements go
    out in groups of [max 1 (n / (jobs * 8))] consecutive elements, about
    eight per domain: each group is one pool task that runs under its own
    bracket on whichever domain claims it, and the groups' snapshots fold
    into the caller's handle in task order, under its innermost open
    span.  The map adds three counters: [pool.batches] (1, or 0 for an
    empty list), [pool.tasks] (the groups) and [pool.stolen] (the groups
    whose bracket ran on a domain other than the caller's).  Results are
    the same either way, in list order. *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum by phase path / counter name.  Associative; fold in
    task order like [Registry.merge]. *)

val attributed_ms : snapshot -> float
(** Sum of self time over all phases — the numerator of the
    "≥ 95 % of measured wall time attributed" acceptance check. *)

val sections :
  leg:string -> ?wall_s:float -> snapshot -> (string * (string * float) list) list
(** The snapshot as bench-document sections ([Mdcc_bench.Envelope]): a
    totals section [leg] holding [attributed_ms] (and, given the
    measured [wall_s], [wall_s] and [attributed_fraction]), one section
    [leg:path] per phase holding [count], [wall_ms], [self_ms] and
    [minor_words], and [leg.counters] holding every counter. *)
