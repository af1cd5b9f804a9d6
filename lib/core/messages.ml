open Mdcc_storage
open Mdcc_paxos

(* A committed-state snapshot used by recovery and anti-entropy.  [included]
   maps every transaction whose effect is folded into [value] to the update
   it contributed (the sender's applied set, shipped as is): the receiver
   marks them visible so a late Visibility delivery cannot re-apply them
   (commutative deltas carry no version guard, so state transfer without
   the txid watermark double-counts them), and keeps the updates so it can
   later offer them to a diverged peer in a [Sync_reply]. *)
type rebase = {
  value : Value.t;
  version : int;
  exists : bool;
  included : Update.t Txn.Map.t;
}

type vote = { woption : Woption.t; decision : Woption.decision; ballot : Ballot.t }

type promise = { votes : vote list; rebase : rebase; decided : (Txn.id * bool) list }

type status =
  | Status_unknown
  | Status_pending of vote
  | Status_decided of bool

type Mdcc_sim.Network.payload +=
  | Propose of { woption : Woption.t; route : [ `Fast | `Classic ] }
  | Phase1a of { key : Key.t; ballot : Ballot.t }
  | Phase1b of {
      key : Key.t;
      ballot : Ballot.t;
      ok : bool;
      promised : Ballot.t;
      promise : promise;
    }
  | Phase2a of {
      key : Key.t;
      ballot : Ballot.t;
      woption : Woption.t;
      decision : Woption.decision;
      classic_until : int;
      rebase : rebase option;
    }
  | Phase2b_master of {
      key : Key.t;
      txid : Txn.id;
      ballot : Ballot.t;
      ok : bool;
    }
  | Phase2b_fast of { woption : Woption.t; decision : Woption.decision }
  | Learned of { key : Key.t; txid : Txn.id; decision : Woption.decision }
  | Redirect of { key : Key.t; txid : Txn.id; master : int; classic_until : int }
  | Visibility of { woption : Woption.t; committed : bool }
  | Start_recovery of { key : Key.t; woption : Woption.t }
  | Status_query of { txid : Txn.id; key : Key.t }
  | Status_reply of { txid : Txn.id; key : Key.t; status : status; acceptor : int }
  | Catchup_request of { key : Key.t }
  | Catchup of { key : Key.t; rebase : rebase }
  | Read_request of { rid : int; key : Key.t }
  | Read_reply of { rid : int; key : Key.t; value : Value.t; version : int; exists : bool }
  | Batch of Mdcc_sim.Network.payload array
  | Sync_request of { entries : (Key.t * int * int) list }
  | Sync_reply of { key : Key.t; version : int; applied : Update.t Txn.Map.t }
  (* Sent and read by nothing; see the .mli. *)
  | Scan_request of { rid : int; table : string; order_by : string option; limit : int }
  | Scan_reply of { rid : int; rows : (Key.t * Value.t * int) list }

(* Digest of the transaction ids folded into a replica's committed value.
   Two replicas at the same version whose digests differ have applied
   different delta sets — the equal-version divergence the ROADMAP calls
   out.  A handwritten fold over the ids in txid order (the map's own
   order, so nothing is sorted) rather than [Hashtbl.hash], which caps its
   traversal and would silently collide on large sets. *)
let applied_digest applied =
  Txn.Map.fold
    (fun txid _ acc ->
      String.fold_left (fun a c -> (a * 131) + Char.code c) ((acc * 257) + 1) txid)
    applied 0x811c9dc5
  land 0x3FFFFFFF

(* Estimated wire size (bytes) of a payload for the per-node traffic
   instruments.  Coarse by design: a fixed per-message header plus the
   variable-length parts that dominate real encodings (keys, values, vote
   and txid lists).  Runs on every send, so it only adds lengths and
   allocates nothing. *)
let header_bytes = 16

(* [String.length (Key.to_string key)], without rendering the key. *)
let key_bytes key = String.length key.Key.table + 1 + String.length key.Key.id

let value_bytes value =
  Value.fold (fun name _scalar acc -> acc + String.length name + 8) value 0

let update_bytes = function
  | Update.Insert value -> 1 + value_bytes value
  | Update.Physical { value; _ } -> 5 + value_bytes value
  | Update.Delete _ -> 5
  | Update.Delta deltas ->
    1 + List.fold_left (fun acc (attr, _) -> acc + String.length attr + 8) 0 deltas
  | Update.Read_guard _ -> 5

let woption_bytes (w : Woption.t) =
  String.length w.Woption.txid + key_bytes w.Woption.key
  + update_bytes w.Woption.update
  + List.fold_left (fun acc k -> acc + key_bytes k) 0 w.Woption.write_set
  + 4

let vote_bytes v = woption_bytes v.woption + 9

let applied_bytes applied =
  Txn.Map.fold (fun txid update acc -> acc + String.length txid + update_bytes update) applied 0

let rebase_bytes (r : rebase) = value_bytes r.value + 5 + applied_bytes r.included

let rec size_of payload =
  header_bytes
  +
  match payload with
  | Propose { woption; _ } -> woption_bytes woption + 1
  | Phase1a { key; _ } -> key_bytes key + 8
  | Phase1b { key; promise = { votes; rebase; decided }; _ } ->
    (* One outcome costs [txid + 1] bytes, whether the applied set or the
       decided log carries it. *)
    key_bytes key + 12 + rebase_bytes rebase
    + List.fold_left (fun acc v -> acc + vote_bytes v) 0 votes
    + Txn.Map.fold (fun txid _ acc -> acc + String.length txid + 1) rebase.included 0
    + List.fold_left (fun acc (txid, _) -> acc + String.length txid + 1) 0 decided
  | Phase2a { key; woption; rebase; _ } ->
    key_bytes key + 13 + woption_bytes woption
    + (match rebase with Some r -> rebase_bytes r | None -> 0)
  | Phase2b_master { key; txid; _ } -> key_bytes key + String.length txid + 10
  | Phase2b_fast { woption; _ } ->
    key_bytes woption.Woption.key + String.length woption.Woption.txid + 1
  | Learned { key; txid; _ } -> key_bytes key + String.length txid + 1
  | Redirect { key; txid; _ } -> key_bytes key + String.length txid + 8
  | Visibility { woption = w; _ } ->
    String.length w.Woption.txid + key_bytes w.Woption.key + update_bytes w.Woption.update + 1
  | Start_recovery { key; woption } -> key_bytes key + woption_bytes woption
  | Status_query { txid; key } -> String.length txid + key_bytes key
  | Status_reply { txid; key; status; _ } ->
    String.length txid + key_bytes key + 4
    + (match status with Status_pending v -> vote_bytes v | _ -> 1)
  | Catchup_request { key } -> key_bytes key
  | Catchup { key; rebase } -> key_bytes key + rebase_bytes rebase
  | Read_request { key; _ } -> key_bytes key + 4
  | Read_reply { key; value; _ } -> key_bytes key + value_bytes value + 9
  | Batch items ->
    (* Batched messages share one header; count the parts in full. *)
    Array.fold_left (fun acc item -> acc + size_of item) 0 items
  | Sync_request { entries } ->
    List.fold_left (fun acc (key, _, _) -> acc + key_bytes key + 8) 0 entries
  | Sync_reply { key; applied; _ } -> key_bytes key + 4 + applied_bytes applied
  | Scan_request _ | Scan_reply _ -> 0  (* never sent *)
  | _ -> 0
