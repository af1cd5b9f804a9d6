(** Transactions: a unique id plus a write-set.

    Like all optimistic concurrency control schemes, MDCC assumes the
    transaction's reads have already happened by commit time and only the
    write-set reaches the protocol.  The id and the full key list travel
    inside every option so that any node can reconstruct and finish a
    dangling transaction after an app-server failure (§3.2.3). *)

type id = string

module Map : Map.S with type key = id
(** Maps keyed by transaction id, in [String.compare] order. *)

type abort_reason =
  | Conflict  (** a write-write conflict: some option was learned rejected *)
  | Constraint_violation  (** a value constraint (demarcation) rejection *)

type outcome = Committed | Aborted of abort_reason

type t = private { id : id; updates : (Key.t * Update.t) list }
(** Private: {!make} and {!serializable} are the only constructors, so
    every write-set has passed the duplicate-key check. *)

val make : id:id -> updates:(Key.t * Update.t) list -> t
(** Raises [Invalid_argument] if two updates target the same key (one
    outstanding option per record is an MDCC invariant, §3.2). *)

val serializable :
  id:id -> reads:(Key.t * int) list -> updates:(Key.t * Update.t) list -> t
(** A fully serializable transaction (§4.4): every read key that is not
    also written gets a {!Update.Read_guard} validating that the read
    version is still current at commit time.  Commit of such a transaction
    certifies both its reads and its writes. *)

val keys : t -> Key.t list

val is_read_only : t -> bool

val commutative_only : t -> bool
(** All updates are [Delta]s. *)

val pp_outcome : Format.formatter -> outcome -> unit

val pp : Format.formatter -> t -> unit
