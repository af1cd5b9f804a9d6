(** Session read guarantees on top of read-committed (§4.2).

    Plain local reads may be stale (a replica can miss updates).  The paper
    sketches how to strengthen them: monotonic reads and read-your-writes
    can be guaranteed by making sure the local replica "participates in the
    quorum" — operationally, by falling back to an up-to-date (majority)
    read whenever the local replica is behind what the session has already
    observed.

    A session tracks, per key, the highest version it has read or written
    (its {e watermark}).  {!read} takes the unified [?level] parameter:

    {ul
    {- [`Local] — raw read-committed read of the local replica, bypassing
       the watermark (what {!Coordinator.read} [`Local] does);}
    {- [`Session] — serve locally when the replica is at or above the
       watermark, silently upgrade to a majority read otherwise;}
    {- [`Majority] — always read a classic quorum;}
    {- [`Snapshot] — the zero-message point-in-time fast path
       ({!Coordinator.read} [`Snapshot]): serve the co-located partition
       store directly, bypassing watermarks {e and} the network.  No
       session guarantee — it is the explicit opt-out for read-only
       analytics.}}

    {b The default is [`Session]} — it is the level this module exists to
    provide, it is never weaker than what the caller already observed, and
    callers wanting the cheaper or stronger guarantee now say so explicitly
    instead of reaching for a different entry point.  {!submit} advances
    watermarks when a transaction commits, so subsequent [`Session] reads
    see the session's own writes. *)

open Mdcc_storage

type level = [ `Local | `Session | `Majority | `Snapshot ]
(** See the module description for the four guarantees. *)

type t

val create : Coordinator.t -> t
(** A fresh session bound to one app-server. *)

val read :
  ?level:level -> t -> Key.t -> ((Value.t * int) option -> unit) -> unit
(** Read one key at the given [level] (default [`Session]: monotonic,
    read-your-writes — never returns a version below the session's
    watermark for the key).

    Every [`Session] answer meets the watermark.  An answer by message
    carries the row's version even when the row is absent (its
    tombstone's, or 0 for a key never written), and must reach the
    watermark with it ({!Coordinator.read_row}).  The co-located store
    answers an absent row with no version: it meets the watermark when
    that is 0, or when the newest row the session knows of the key is
    absent too — the session's own delete ({!submit}), or a tombstone it
    read at or above the watermark.  A present row must always reach it.

    What a [`Session] read costs, decided before anything is sent:
    {ul
    {- {b no message} when the key is not dirty and the coordinator's
       co-located replica (its {!Coordinator.snapshot_source}) already
       holds a fresh row ({!Coordinator.read_colocated}; counted as
       [session_read_colocated]);}
    {- otherwise a local round trip to that replica, and a majority read
       after it if its answer is not fresh ([session_read_fresh] or
       [session_read_stale_upgrade]) — also the whole path of a
       coordinator with no co-located stores;}
    {- a majority read straight away for a dirty key
       ([session_read_dirty_upgrade]).}}
    A majority answer that is not fresh is never delivered: the majority
    read is re-issued after a wait of 100 ms that doubles each round,
    each re-issue counted as [session_read_stale_upgrade].  After 8
    majority reads below the watermark (12.7 s of waiting) the read is
    dropped ([session_read_dropped]) and its callback never runs.
    Every answer arrives later, through the runtime, never reentrantly. *)

val submit : t -> Txn.t -> (Txn.outcome -> unit) -> unit
(** {!Coordinator.submit}, additionally advancing the watermarks of the
    written keys when the transaction commits, and recording which of
    them it deleted. *)

val watermark : t -> Key.t -> int
(** The session's current lower bound for the key's version (0 if never
    observed). *)
