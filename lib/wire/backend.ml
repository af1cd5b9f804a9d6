open Mdcc_storage
module Session = Mdcc_core.Session
module Obs = Mdcc_obs.Obs

type status = Stored | Not_stored | Exists | Not_found | Server_busy of string

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

let encode ~flags ~data = Value.of_list [ ("data", Str data); ("flags", Int flags) ]

let decode key (value, version) =
  let data =
    match Value.find value "data" with
    | Str s -> s
    | Int i -> string_of_int i
    | exception Not_found -> ""
  in
  let flags = match Value.find value "flags" with Int f -> f | Str _ | (exception Not_found) -> 0 in
  { Protocol.h_key = key; h_flags = flags; h_data = data; h_cas = version }

let reason_of = function
  | Txn.Conflict -> "conflict"
  | Txn.Constraint_violation -> "constraint violation"

let of_session ?(table = "kv") ?(stats = fun () -> []) ~partition_of ~obs
    ~next_txid session =
  let key_of id = Key.make ~table ~id in
  (* Per-partition request accounting: [partition_of] is the server's key
     hash — the same routing the coordinator applies — so [stats detail]
     shows where the keyspace load actually lands
     ([wire.partition.p00.reads], [.writes], ...).  Each name is rendered
     the first time its partition is hit, not per request. *)
  let tally verb =
    let names = Hashtbl.create 8 in
    fun id ->
      let p = partition_of id in
      let name =
        match Hashtbl.find names p with
        | name -> name
        | exception Stdlib.Not_found ->
          let name = Printf.sprintf "wire.partition.p%02d.%s" p verb in
          Hashtbl.replace names p name;
          name
      in
      Obs.incr obs name
  in
  let tally_read = tally "reads" and tally_write = tally "writes" in
  (* Each request builds its [Key.t] once, for its reads and its
     submission alike. *)
  let get id level k =
    tally_read id;
    Session.read ~level session (key_of id) (function
      | Some found -> k (Some (decode id found))
      | None -> k None)
  in
  let submit1 key update k =
    Session.submit session (Txn.make ~id:(next_txid ()) ~updates:[ (key, update) ]) k
  in
  (* Read-modify-write with bounded conflict retries: each retry re-reads at
     [`Session] level, so it observes the version that beat it. *)
  let set ~key:id ~flags ~data k =
    tally_write id;
    let key = key_of id and value = encode ~flags ~data in
    let rec attempt budget =
      Session.read ~level:`Session session key (fun cur ->
          let update =
            match cur with
            | Some (_, vread) -> Update.Physical { vread; value }
            | None -> Update.Insert value
          in
          submit1 key update (function
            | Txn.Committed -> k Stored
            | Txn.Aborted Txn.Constraint_violation -> k Not_stored
            | Txn.Aborted Txn.Conflict when budget > 0 ->
              attempt (budget - 1)
            | Txn.Aborted reason -> k (Server_busy (reason_of reason))))
    in
    attempt 8
  in
  let cas ~key:id ~flags ~data ~cas k =
    tally_write id;
    let key = key_of id in
    Session.read ~level:`Session session key (function
      | None -> k Not_found
      | Some (_, version) when version <> cas -> k Exists
      | Some _ ->
        submit1 key (Update.Physical { vread = cas; value = encode ~flags ~data })
          (function
          | Txn.Committed -> k Stored
          | Txn.Aborted Txn.Conflict -> k Exists
          | Txn.Aborted Txn.Constraint_violation -> k Not_stored))
  in
  let delete id k =
    tally_write id;
    let key = key_of id in
    let rec attempt budget =
      Session.read ~level:`Session session key (function
        | None -> k Not_found
        | Some (_, vread) ->
          submit1 key (Update.Delete { vread }) (function
            | Txn.Committed -> k Stored
            | Txn.Aborted Txn.Conflict when budget > 0 ->
              attempt (budget - 1)
            | Txn.Aborted reason -> k (Server_busy (reason_of reason))))
    in
    attempt 8
  in
  (* One multi-record transaction.  [Txn.make] rejects duplicate keys, so
     collapse the buffered ops to the last write per key first; reads then
     resolve each key's current version to build the write-set. *)
  let commit ops k =
    List.iter
      (fun op ->
        tally_write (match op with T_set { key; _ } -> key | T_delete key -> key))
      ops;
    let module S = Set.Make (String) in
    let _, deduped =
      List.fold_left
        (fun (seen, acc) op ->
          let key = match op with T_set { key; _ } -> key | T_delete key -> key in
          if S.mem key seen then (seen, acc) else (S.add key seen, op :: acc))
        (S.empty, []) (List.rev ops)
    in
    let rec resolve acc = function
      | [] ->
        if acc = [] then k (Ok ())
        else
          Session.submit session
            (Txn.make ~id:(next_txid ()) ~updates:(List.rev acc))
            (function
            | Txn.Committed -> k (Ok ())
            | Txn.Aborted reason -> k (Error (reason_of reason)))
      | T_set { key; flags; data } :: rest ->
        let value = encode ~flags ~data in
        Session.read ~level:`Session session (key_of key) (fun cur ->
            let update =
              match cur with
              | Some (_, vread) -> Update.Physical { vread; value }
              | None -> Update.Insert value
            in
            resolve ((key_of key, update) :: acc) rest)
      | T_delete key :: rest ->
        Session.read ~level:`Session session (key_of key) (function
          | None -> resolve acc rest  (* deleting an absent record: a no-op *)
          | Some (_, vread) -> resolve ((key_of key, Update.Delete { vread }) :: acc) rest)
    in
    resolve [] deduped
  in
  { b_get = get; b_set = set; b_cas = cas; b_delete = delete; b_commit = commit;
    b_stats = stats }
