(** The storage node's record store.

    One store per storage node, holding the {e committed} state of every
    record the node replicates: the current value, the version counter (one
    increment per executed update) and an existence flag (inserts/deletes).
    All protocol state (pending options, ballots) lives above this layer in
    the protocol's acceptor. *)

type row = {
  mutable value : Value.t;
  mutable version : int;
  mutable exists : bool;
}

type t

val create : Schema.t -> t

val schema : t -> Schema.t

val find : t -> Key.t -> row option
(** The row if the key was ever touched (it may be a tombstone). *)

val ensure : t -> Key.t -> row
(** The row, created as [version 0, not exists] if never touched. *)

val read : t -> Key.t -> (Value.t * int) option
(** Committed value and version, or [None] if the record does not exist
    (never inserted, or deleted). *)

val version : t -> Key.t -> int
(** Current version (0 if never touched). *)

val validate : t -> Key.t -> Update.t -> bool
(** Would this update's version precondition hold against the committed
    state right now?  ([Insert] needs non-existence, [Physical]/[Delete]
    need a matching [vread], [Delta] needs existence.) *)

val apply : t -> Key.t -> Update.t -> unit
(** Execute an update against the committed state, bumping the version.
    The caller is responsible for having validated it; this is the
    "make the option visible" step. *)

val size : t -> int
(** Number of rows ever touched. *)

val iter : t -> (Key.t -> row -> unit) -> unit

val fold : t -> init:'a -> f:(Key.t -> row -> 'a -> 'a) -> 'a
