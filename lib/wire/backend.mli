(** The storage face of the wire layer: asynchronous key/value operations
    over an MDCC {!Mdcc_core.Session}.

    A backend is a record of continuation-passing operations so {!Handler}
    is testable against a synchronous fake, and so the same handler runs
    over the simulated runtime (deterministic tests) and the socket runtime
    (the real server) without change.

    {!of_session} implements the memcached verbs on MDCC semantics:
    values live in one table as [{data : Str; flags : Int}] records; [set]
    reads at [`Session] level to learn the current version and submits a
    [Physical] (or [Insert]) single-update transaction, retrying a bounded
    number of times on write-write conflict; [cas] submits with
    [vread = cas] — the record version {e is} the cas token, so [EXISTS] is
    exactly MDCC's conflict abort; [commit] turns the buffered ops into one
    multi-record write-set and submits it once, surfacing an abort to the
    client instead of retrying (the transactional client owns its retry
    policy). *)

type status =
  | Stored  (** the write (or delete) took effect *)
  | Not_stored  (** rejected by a value constraint *)
  | Exists  (** cas token stale — someone else wrote first *)
  | Not_found
  | Server_busy of string  (** conflict retries exhausted *)

type txn_op =
  | T_set of { key : string; flags : int; data : string }
  | T_delete of string

type t = {
  b_get : string -> Protocol.level -> (Protocol.hit option -> unit) -> unit;
  b_set : key:string -> flags:int -> data:string -> (status -> unit) -> unit;
  b_cas : key:string -> flags:int -> data:string -> cas:int -> (status -> unit) -> unit;
  b_delete : string -> (status -> unit) -> unit;
  b_commit : txn_op list -> ((unit, string) result -> unit) -> unit;
  b_stats : unit -> (string * string) list;
}

val of_session :
  ?table:string ->
  ?stats:(unit -> (string * string) list) ->
  partition_of:(string -> int) ->
  obs:Mdcc_obs.Obs.t ->
  next_txid:(unit -> Mdcc_storage.Txn.id) ->
  Mdcc_core.Session.t ->
  t
(** [table] (default ["kv"]) must be declared in the cluster's schema;
    the single-key verbs retry a conflict up to 8 times;
    [next_txid] must yield server-unique transaction ids.  Every verb is
    tallied into [obs] per partition ([wire.partition.pNN.reads] /
    [.writes]), by [partition_of] — the server's key-to-partition hash,
    the same routing the coordinator applies — which [stats detail] then
    exposes. *)
