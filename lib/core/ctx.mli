(** Shared construction context for protocol nodes.

    Bundles the cross-cutting optional dependencies — history recorder,
    observability handle, trace-line sink — that
    [Coordinator.create], [Storage_node.create] and [Cluster.create] all
    need, so they are threaded as one value instead of parallel
    optional-argument tails.  Build one at
    the edge with {!make} and pass it everywhere; omitting [?ctx] on any
    constructor is equivalent to passing {!make}[ ()]. *)

type t = {
  history : History.t option;
      (** passive execution recorder for the chaos checker, if any *)
  obs : Mdcc_obs.Obs.t;  (** metrics registry + span collector *)
  trace : (string -> unit) option;
      (** trace-line sink, if any.  Lines are rendered by the runtime, so
          the sink takes effect where the runtime is built from it:
          {!Cluster.create} hands it to {!Runtime.of_network}. *)
  local_nodes : int list;
      (** Nothing in [lib/] reads this field: it stays only because
          [bench/e2e] still sets it, and the next change to the benchmark
          deletes it. *)
  spans : Event.span_sink option;
      (** [obs]'s span store, if spans are on, wrapped by {!make} once so
          that every node built from the context shares its key labels *)
}

val make :
  ?history:History.t ->
  ?obs:Mdcc_obs.Obs.t ->
  ?trace:(string -> unit) ->
  ?local_nodes:int list ->
  unit ->
  t
(** [obs] defaults to a fresh private {!Mdcc_obs.Obs.create}[ ()], so a
    context built without one shares its registry with nothing; [history]
    and [trace] to none; [local_nodes] (read by nothing, see the field;
    the next change to the benchmark deletes the argument) to the empty
    list. *)

val with_local_nodes : t -> int list -> t
(** A copy of [t] with [local_nodes] replaced.  Nothing in [lib/] calls
    it: it stays only because [bench/e2e] still does, and the next change
    to the benchmark deletes it. *)

(** {1 The event stream} *)

type stream
(** One node's emitter of {!Event.t}s: the context's history and span
    store, and the runtime's clock and trace-line sink. *)

val stream : t -> Runtime.t -> node:int -> stream
(** The emitter of node [node] (use [-1] outside any node). *)

val live : stream -> bool
(** Whether an event would reach a consumer: a history is attached, spans
    are on, or the runtime is tracing.  Allocates nothing.  Call sites
    build an event only when this holds:
    [if Ctx.live s then Ctx.emit s (Event.Decided { txid; outcome })]. *)

val emit : stream -> Event.t -> unit
(** Feed the event, stamped with the runtime's clock and the stream's node,
    to every live consumer: the history ({!History.record}), the span
    store ({!Event.record_span}) and, while tracing, the trace-line sink
    ({!Event.trace}). *)
