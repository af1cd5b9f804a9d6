(** One node's sends, folded per destination within a protocol step.

    Outside a step, {!send} hands the payload to the runtime at once.
    Between {!enter} and the matching {!leave}, sends queue instead, and
    when the outermost step is left they go out grouped by destination
    node id: a destination queued one payload receives it bare, one queued
    several receives one {!Messages.Batch} of them in queue order, and
    destinations are served in the order of their first payload.  So a
    step that sends at most one message per destination sends exactly
    what it would have sent without folding, in the same order, and MDCC's
    batching (the paper's conclusion) needs no switch.

    A step need not end in the call that began it: the coordinator ends a
    delivery's step from a thunk spawned when the delivery has queued
    something ({!queued}), so what is sent at the same virtual instant
    joins it.

    Grouping is by node id, never by the identity of a replica list.  The
    queue and the per-destination counts are arrays kept from step to
    step: once they have grown to the node's largest step, a step
    allocates only the arrays of the Batches it sends. *)

type t

val create : Runtime.t -> src:int -> t
(** The outbox of node [src], sending through the runtime. *)

val send : t -> int -> Mdcc_sim.Network.payload -> unit
(** [send t dst payload]: at once outside a step, queued inside one. *)

val queued : t -> bool
(** Whether the current step has queued anything: [false] outside a
    step. *)

val enter : t -> unit
(** Start a step, or nest one inside the current step. *)

val leave : t -> unit
(** End a step; ending the outermost sends what it queued. *)
