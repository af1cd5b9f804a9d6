(** Per-transaction causal spans.  A span is opened when a transaction is
    submitted ({!begin_txn}) and accumulates timestamped events from every
    protocol layer that handles the transaction — coordinator propose,
    acceptor vote, learn, visibility.  Each event names its transaction
    explicitly: the MDCC nodes append them as a fold over their protocol
    event stream ([Mdcc_core.Event.record_span]), which carries the txid in
    the event itself.  Events are stored in append order; because the
    simulator delivers events in nondecreasing sim time, that is also
    sim-time order, which the acceptance tests verify. *)

type t

type event = {
  ev_at : float;  (** sim time (ms) at which the event was recorded *)
  ev_node : int;  (** node id that recorded it; [-1] for the client edge *)
  ev_name : string;  (** e.g. ["propose"], ["vote"], ["learn"], ["visible"] *)
  ev_key : string option;  (** record key the event concerns, if any *)
  ev_detail : string;  (** free-form detail, e.g. the vote verdict *)
}

val create : unit -> t

val begin_txn : t -> txid:string -> at:float -> unit
(** Open a span.  Re-opening an existing txid is a no-op (recovery paths may
    race the original submission). *)

val event :
  t ->
  txid:string ->
  at:float ->
  node:int ->
  name:string ->
  ?key:string ->
  detail:string ->
  unit ->
  unit
(** Append an event to a span.  Unknown txids open a span implicitly (events
    attributed to a transaction whose begin the sink never saw — e.g. a
    recovery replica — must not be dropped). *)

val events : t -> txid:string -> event list
(** Events of one span in append order; [[]] for unknown txids. *)

val txids : t -> string list
(** All txids with a span, sorted. *)

val to_json : t -> Json.t
(** All span trees as a list, txids sorted.  Each tree is
    [{"txid":..,"begin":..,"events":[..],"keys":[{"key":..,"events":[..]}]}]:
    root ["events"] lists events with no key; ["keys"] groups the rest under
    their record key, keys sorted, events in append order within each
    group. *)
