(** The observability handle threaded through the protocol: a metrics
    {!Registry.t} plus an optional per-transaction {!Span.t} store.  Every
    handle has an owner: protocol components read theirs from their
    [Ctx.t] (a context built without one gets a fresh private handle), and
    a driver that exports metrics creates the handle it exports and passes
    it down.  There is no shared default, so two deployments never count
    into one registry unless they are given the same handle.  The chaos
    runner creates a fresh handle per run with spans enabled. *)

type t

val create : ?spans:bool -> unit -> t
(** [create ()] has no span store; [create ~spans:true ()] records spans. *)

val registry : t -> Registry.t
val spans : t -> Span.t option

val incr : t -> ?by:int -> string -> unit
val set_gauge : t -> string -> int -> unit
val add_gauge : t -> string -> int -> unit
val observe : t -> string -> float -> unit
(** Registry pass-throughs. *)

type counter = Registry.counter

val counter : t -> string -> counter
(** A {!Registry.counter_handle} on this handle's registry, for counters
    bumped on every message: resolve it once where the component is built. *)

val bump : counter -> unit
(** [bump c] is [incr t name] for [c]'s handle and name, without the name
    lookup; allocates nothing. *)

val traffic_meter :
  t ->
  nodes:int ->
  (src:int -> dst:int -> bytes:int -> unit) * (src:int -> dst:int -> bytes:int -> unit)
(** [(on_send, on_deliver)] for a deployment's network meter over node ids
    [0 .. nodes-1]: [on_send] counts a message and its bytes on the
    sender's [net.sent.nodeNN] and [net.sent_bytes.nodeNN], [on_deliver] on
    the receiver's [net.recv.nodeNN] and [net.recv_bytes.nodeNN].  The
    four counters of each node are resolved here ({!counter}), so a
    message costs no name lookup and allocates nothing. *)

val metrics_json : t -> Json.t
val spans_json : t -> Json.t
(** [spans_json] is [List []] when spans are disabled. *)

val merge : into:t -> t -> unit
(** Fold [src]'s registry into [into]'s ({!Registry.merge}).  Span stores
    are not merged — aggregate runs keep spans per-handle. *)
