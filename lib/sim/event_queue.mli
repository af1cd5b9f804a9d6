(** Binary min-heap of timestamped events.

    Ordering is by [(time, sequence-number)]: the sequence number is assigned
    by the engine at insertion, so events scheduled for the same instant fire
    in insertion order and every simulation run is fully deterministic.

    Storage is two parallel pre-sized arrays — a flat [float array] of times
    and an array of handles — so heap comparisons never chase a pointer and
    no per-operation tuple or float box is allocated: a push allocates
    exactly the returned handle, and the {!pop_before} dispatch path
    allocates nothing at all. *)

type event = private {
  seq : int;  (** insertion tie-breaker *)
  mutable cancelled : bool;
  run : unit -> unit;
}
(** A scheduled event.  The event's time lives in the heap's flat float
    array, not here — a [float] field in this mixed record would be boxed
    on every push. *)

type t
(** The mutable heap. *)

type fcell = { mutable f : float }
(** A single-field float record: stored flat, so writes are raw float
    stores.  The engine's virtual clock is one of these, and so is the
    cell {!push_cell} reads a time from. *)

val create : unit -> t
(** Fresh empty heap.  The profiler handle is resolved from the ambient
    once here, never per operation. *)

val size : t -> int
(** Entries in the heap, including not-yet-discarded cancelled events.
    Cancelled entries never exceed half the heap (plus a small constant
    floor): {!cancel} compacts once they outnumber live entries. *)

val is_empty : t -> bool

val push : t -> at:float -> seq:int -> (unit -> unit) -> event
(** Insert an event; the returned handle can be cancelled. *)

val push_cell : t -> at:fcell -> seq:int -> (unit -> unit) -> event
(** [push] with the time read from [at.f]: the engine's path, on which no
    boxed float crosses into this module. *)

val cancel : t -> event -> unit
(** Mark the event dead; it is skipped (and dropped) when popped.  When
    cancelled entries exceed half of {!size} the heap is compacted in
    place, so cancel-heavy runs stay bounded by the live event count.
    Idempotent. *)

val pop_before : t -> limit:float -> now:fcell -> event
(** Remove and return the earliest live event with time [<= limit],
    writing its time into [now]; returns {!dummy} (test with {!is_dummy})
    when the heap is empty or the next live event is after [limit].
    Allocation-free: this is the engine's dispatch primitive. *)

val is_dummy : event -> bool
(** [true] exactly for the sentinel {!pop_before} returns on exhaustion. *)
