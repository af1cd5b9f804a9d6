(** Write options — ω(up, _) in the paper's pseudocode.

    MDCC never writes a value through Paxos directly; it gets an {e option to
    execute the update} accepted.  An option embeds the transaction id and
    the primary keys of the whole write-set so that {e any} node can
    reconstruct the transaction state and finish a dangling transaction
    after an app-server failure (§3.2.3). *)

open Mdcc_storage

type decision = Accepted | Rejected
(** ω(up, ✓) / ω(up, ✗): the acceptance state of an option. *)

type t = {
  txid : Txn.id;
  key : Key.t;
  update : Update.t;
  write_set : Key.t list;  (** all keys of the owning transaction *)
  coordinator : int;  (** node id of the proposing app-server *)
}

val is_commutative : t -> bool

val decision_equal : decision -> decision -> bool

val pp_decision : Format.formatter -> decision -> unit

val pp : Format.formatter -> t -> unit
