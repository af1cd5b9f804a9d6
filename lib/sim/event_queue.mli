(** Binary min-heap of timestamped events.

    Ordering is by [(time, sequence-number)]: the sequence number is assigned
    by the engine at insertion, so events scheduled for the same instant fire
    in insertion order and every simulation run is fully deterministic.

    Storage is two parallel pre-sized arrays — a flat [float array] of times
    and an array of events — so no per-operation tuple or float box is
    allocated, and the {!pop_before} dispatch path allocates nothing at
    all.

    The heap holds two kinds of event, ordered by the same [(time, seq)]
    rule so a message and a timer due at the same instant fire in push
    order:
    - a {e thunk} ([Thunk]) is a timer: {!push}/{!push_cell} allocate its
      4-word record, which is also the handle {!cancel} takes.  A periodic
      timer's record is pushed again with {!repush} each time it fires, so
      a tick allocates nothing;
    - a {e message} ([Msg]) is a network message in flight, carried as
      data rather than as a closure.  Message records are mutable and
      reused: the engine keeps a free stack of them, fills one per send
      and pushes it with {!push_msg}, and returns it to the stack when it
      is popped.  In steady state a message therefore allocates nothing.
      Messages have no handle and cannot be cancelled. *)

type payload = ..
(** A message's contents.  Extensible so each protocol library declares its
    own constructors; {!Network.payload} re-exports it. *)

type event =
  | Thunk of {
      mutable seq : int;  (** insertion tie-breaker; {!repush} renews it *)
      mutable cancelled : bool;
          (** set by {!cancel}, and by {!pop_before} once the thunk has left
              the heap — a spent thunk cannot be cancelled *)
      run : unit -> unit;
    }
  | Msg of {
      mutable seq : int;
      mutable src : int;
      mutable dst : int;
      mutable bytes : int;  (** the size the sender's meter measured *)
      mutable payload : payload;
      mutable ctx : string option;  (** the sender's trace context *)
    }
(** A scheduled event.  Its time lives in the heap's flat float array, not
    here — a [float] field in these mixed records would be boxed on every
    push.  Only the engine builds [Msg] records. *)

type t
(** The mutable heap. *)

type fcell = Mdcc_util.Rng.fcell = { mutable f : float }
(** A single-field float record: stored flat, so writes are raw float
    stores.  The engine's virtual clock is one of these, and so is the
    cell {!push_cell} and {!push_msg} read a time from. *)

val create : unit -> t
(** Fresh empty heap.  The profiler handle is resolved from the ambient
    once here, never per operation. *)

val size : t -> int
(** Entries in the heap, including not-yet-discarded cancelled events.
    Cancelled entries never exceed half the heap (plus a small constant
    floor): {!cancel} compacts once they outnumber live entries. *)

val live : t -> int
(** Entries not cancelled: [size] minus the cancelled ones still in the
    heap.  Exact, since {!cancel} counts each entry it kills once. *)

val is_empty : t -> bool

val next_at : t -> float
(** The time of the root entry, [infinity] when the heap is empty.  The
    root may be a cancelled entry, so this is a lower bound on the next
    live event; after {!pop_before} has returned {!dummy} it is exact,
    since [pop_before] discards every cancelled root it meets. *)

val push : t -> at:float -> seq:int -> (unit -> unit) -> event
(** Insert an event; the returned handle can be cancelled. *)

val push_cell : t -> at:fcell -> seq:int -> (unit -> unit) -> event
(** [push] with the time read from [at.f]: the engine's path, on which no
    boxed float crosses into this module. *)

val push_msg : t -> at:fcell -> event -> unit
(** Insert a filled [Msg] record (its [seq] already set) at time [at.f].
    Allocates nothing: the record comes from the engine's free stack, and
    must not already be in the heap. *)

val repush : t -> at:fcell -> seq:int -> event -> unit
(** Re-insert a thunk that is not in the heap — one {!pop_before} has
    returned, or one the engine built itself — with a new [seq], at time
    [at.f], and mark it live again.  Allocates nothing: a periodic timer
    re-arms its own record instead of pushing a new one.  Raises
    [Invalid_argument] on a message. *)

val cancel : t -> event -> unit
(** Mark a pending thunk dead; it is skipped (and dropped) when popped.
    When cancelled entries exceed half of {!size} the heap is compacted in
    place, so cancel-heavy runs stay bounded by the live event count.
    Idempotent, and a no-op on a thunk that has already been popped and
    on a message. *)

val pop_before : t -> limit:float -> now:fcell -> event
(** Remove and return the earliest live event with time [<= limit],
    writing its time into [now]; returns {!dummy} (test with {!is_dummy})
    when the heap is empty or the next live event is after [limit].
    Allocation-free: this is the engine's dispatch primitive. *)

val is_dummy : event -> bool
(** [true] exactly for the sentinel {!pop_before} returns on exhaustion. *)
