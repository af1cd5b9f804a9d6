(** Lightweight, globally-switched protocol trace lines.

    The protocol emits typed events ([Mdcc_core.Event]); a trace line is
    one rendering of an event, made only while tracing is on.  Disabled by
    default so the hot simulation loop pays only a flag check; enable it in
    tests or from the CLI's [--trace] flag to get a readable interleaved
    log of protocol decisions with virtual timestamps. *)

val enable : unit -> unit
val disable : unit -> unit
val enabled : unit -> bool

val set_sink : (string -> unit) -> unit
(** Redirect rendered trace lines (without trailing newline) to a custom
    consumer — e.g. a buffer, so a chaos run can attach the interleaved
    protocol trace of a violating seed to its report instead of losing it to
    the terminal.  Only called when tracing is enabled. *)

val reset_sink : unit -> unit
(** Restore the default stdout sink. *)

type handle
(** This domain's trace state, resolved once (a [Domain.DLS] lookup) so a
    runtime's per-trace-point liveness check is one field load.  Like the
    profiler's ambient, a handle is only valid on the domain that resolved
    it. *)

val handle : unit -> handle

val active : handle -> bool
(** [true] when tracing is enabled — i.e. when building a trace line would
    not be wasted work.  Runtimes check this {e before} formatting so
    disabled trace points allocate nothing. *)

val record_at : handle -> at:float -> tag:string -> string -> unit
(** Record an already-rendered message as a line at [at]; a no-op unless
    {!active}. *)
