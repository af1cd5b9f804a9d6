open Mdcc_storage
open Mdcc_paxos
module Engine = Mdcc_sim.Engine
module Invariant = Mdcc_util.Invariant
module Table = Mdcc_util.Table

type vote = {
  mutable woption : Woption.t;
  mutable decision : Woption.decision;
  mutable ballot : Ballot.t;
  proposed_at : Engine.stamp;
  mutable next : vote;
}

type applied = Update.t Txn.Map.t

type t = {
  key : Key.t;
  mutable promised : Ballot.t;
  mutable classic_until : int;
  mutable pending : vote;
  mutable applied : applied;
  mutable decided : (Txn.id * bool) list;
}

(* What the sentinel and every released vote hold: no option of a live
   transaction, so a vote on the free stack keeps nothing alive. *)
let no_option =
  let key = Key.make ~table:"" ~id:"" in
  { Woption.txid = ""; key; update = Update.Delta []; write_set = []; coordinator = -1 }

let rec none =
  {
    woption = no_option;
    decision = Woption.Rejected;
    ballot = Ballot.initial_fast;
    proposed_at = { Engine.time = 0.0 };
    next = none;
  }

let vote ?(next = none) woption decision ballot =
  { woption; decision; ballot; proposed_at = { Engine.time = 0.0 }; next }

let create ?(classic_until = 0) key =
  {
    key;
    promised = Ballot.initial_fast;
    classic_until;
    pending = none;
    applied = Txn.Map.empty;
    decided = [];
  }

(* The applied set — every committed transaction folded into this replica's
   copy of the record, with the update it contributed.  A txid-ordered map,
   so iteration order, digests and merges are deterministic (lint R1), and
   updated idempotently: membership by txid is the guard that makes replays
   of commutative deltas safe. *)

let applied_add applied txid update =
  if Txn.Map.mem txid applied then applied else Txn.Map.add txid update applied

let applied_missing ~mine ~theirs =
  Txn.Map.filter (fun txid _ -> not (Txn.Map.mem txid mine)) theirs

(* The [applied] field of every promoted record: a marker known by its
   address, like [none], whose set lives in its node's [Applied.store]. *)
let promoted : applied = Txn.Map.singleton "" (Update.Delta [])

let mark_applied t txid update =
  if t.applied == promoted then
    Invariant.violate ~context:"Rstate.mark_applied" "record %s is promoted" (Key.to_string t.key);
  t.applied <- applied_add t.applied txid update

(* Small sets stay maps: a snapshot of one is free, and tpcw gives every
   new row a record of its own, so a singleton must cost one map node.  A
   promoted set is a txid table plus a cached snapshot; the table is
   never iterated in hash order (lint R1), only through [Table]. *)
module Applied = struct
  let promote_at = 32

  (* [snap] is the snapshot of [entries] unless [stale]; then it is the
     snapshot as it stood before the latest inserts, a subset of
     [entries], since a table only grows between replacements. *)
  type set = {
    entries : (Txn.id, Update.t) Hashtbl.t;
    mutable snap : applied;
    mutable stale : bool;
  }

  (* Built on the first promotion: most nodes of a short run never need one. *)
  type store = { mutable sets : set Key.Tbl.t option }

  let store () = { sets = None }

  let set_of store t =
    match store.sets with
    | Some sets -> Key.Tbl.find sets t.key
    | None ->
      Invariant.violate ~context:"Rstate.Applied" "record %s is promoted in no store"
        (Key.to_string t.key)

  let mem store t txid =
    if t.applied == promoted then Hashtbl.mem (set_of store t).entries txid
    else Txn.Map.mem txid t.applied

  let promote store t snap =
    let entries = Hashtbl.create (2 * promote_at) in
    Txn.Map.iter (Hashtbl.replace entries) snap;
    let sets =
      match store.sets with
      | Some sets -> sets
      | None ->
        let sets = Key.Tbl.create 16 in
        store.sets <- Some sets;
        sets
    in
    Key.Tbl.replace sets t.key { entries; snap; stale = false };
    t.applied <- promoted

  let add store t txid update =
    if t.applied == promoted then begin
      let s = set_of store t in
      if not (Hashtbl.mem s.entries txid) then begin
        Hashtbl.add s.entries txid update;
        s.stale <- true
      end
    end
    else begin
      let small = t.applied in
      mark_applied t txid update;
      if t.applied != small && Txn.Map.cardinal t.applied >= promote_at then
        promote store t t.applied
    end

  let catch_up snap (txid, update) =
    if Txn.Map.mem txid snap then snap else Txn.Map.add txid update snap

  let snapshot store t =
    if t.applied != promoted then t.applied
    else begin
      let s = set_of store t in
      if s.stale then begin
        s.snap <-
          List.fold_left catch_up s.snap (Table.sorted_bindings ~compare:String.compare s.entries);
        s.stale <- false
      end;
      s.snap
    end

  let replace store t applied =
    if Txn.Map.cardinal applied >= promote_at then promote store t applied
    else begin
      (match store.sets with
      | Some sets when t.applied == promoted -> Key.Tbl.remove sets t.key
      | Some _ | None -> ());
      t.applied <- applied
    end
end

(* The pending chain is short and walked per proposal.  Every walk below is
   a top-level recursion that takes its arguments instead of capturing
   them in a closure, so walking, linking and unlinking allocate nothing. *)
let same_txid txid v = String.equal v.woption.Woption.txid txid

let rec find_from txid v =
  if v == none then raise_notrace Not_found
  else if same_txid txid v then v
  else find_from txid v.next

let find_pending t txid = find_from txid t.pending

let mem_pending t txid =
  match find_from txid t.pending with (_ : vote) -> true | exception Not_found -> false

let rec count_from n v = if v == none then n else count_from (n + 1) v.next

let pending_count t = count_from 0 t.pending

(* A stack of released votes, linked through [next]. *)
type pool = { mutable free : vote }

let pool () = { free = none }

let take p =
  let v = p.free in
  if v == none then vote no_option Woption.Rejected Ballot.initial_fast
  else begin
    p.free <- v.next;
    v
  end

let release p v =
  v.woption <- no_option;
  v.next <- p.free;
  p.free <- v

(* Unlink [txid]'s vote from the chain after [prev] and answer it, or
   [none] when the chain has no such vote. *)
let rec unlink_after prev txid v =
  if v == none then none
  else if same_txid txid v then begin
    prev.next <- v.next;
    v
  end
  else unlink_after v txid v.next

let unlink t txid =
  let head = t.pending in
  if head == none then none
  else if same_txid txid head then begin
    t.pending <- head.next;
    head
  end
  else unlink_after head txid head.next

let remove_pending p t txid =
  let v = unlink t txid in
  if v != none then release p v

let rec last v = if v.next == none then v else last v.next

let add_pending p t (w : Woption.t) decision ballot =
  let v = unlink t w.Woption.txid in
  let v = if v == none then take p else v in
  v.woption <- w;
  v.decision <- decision;
  v.ballot <- ballot;
  v.next <- none;
  if t.pending == none then t.pending <- v else (last t.pending).next <- v;
  v

let rec votes_from v =
  if v == none then []
  else
    { Messages.woption = v.woption; decision = v.decision; ballot = v.ballot }
    :: votes_from v.next

let votes t = votes_from t.pending

(* [now -. proposed_at > limit]: the clock arrives in a flat cell and
   [limit] as the caller's float, so the walk boxes nothing. *)
let[@inline] older (now : Engine.stamp) limit v =
  now.Engine.time -. v.proposed_at.Engine.time > limit

let rec any_older_from now limit v =
  v != none && (older now limit v || any_older_from now limit v.next)

let any_older t ~now limit = any_older_from now limit t.pending

let rec older_from now limit v =
  if v == none then []
  else if older now limit v then v.woption :: older_from now limit v.next
  else older_from now limit v.next

let older_than t ~now limit = older_from now limit t.pending

let in_classic_era t ~version = version < t.classic_until

type valuation = Store.row = {
  mutable value : Value.t;
  mutable version : int;
  mutable exists : bool;
}

type demarcation = [ `Quorum of int * int | `Escrow ]

(* Exact integer test of  base + pending_neg + delta_neg >= L  with
   L = lower + (n - qf) / n * (base - lower): multiply through by n. *)
let demarcation_lower_ok ~n ~qf ~base ~lower ~pending_neg ~delta_neg =
  n * (base + pending_neg + delta_neg) >= (n * lower) + ((n - qf) * (base - lower))

let demarcation_upper_ok ~n ~qf ~base ~upper ~pending_pos ~delta_pos =
  n * (base + pending_pos + delta_pos) <= (n * upper) - ((n - qf) * (upper - base))

(* The decision runs on every proposal, so the helpers below recurse with
   their arguments rather than fold with closures or pair accumulators:
   evaluating an option allocates nothing. *)
let rec attr_delta deltas attr =
  match deltas with
  | [] -> 0
  | (a, d) :: rest -> (if String.equal a attr then d else 0) + attr_delta rest attr

(* Worst-case sums of outstanding accepted deltas for one attribute: the
   permutation of commit/abort outcomes that drives the value lowest keeps
   only the negative deltas; highest keeps only the positive ones.  A vote
   to reject counts for nothing. *)
let accepted_delta v attr =
  match v.decision with
  | Woption.Accepted -> attr_delta (Update.deltas v.woption.Woption.update) attr
  | Woption.Rejected -> 0

let rec pending_neg v attr =
  if v == none then 0 else Stdlib.min 0 (accepted_delta v attr) + pending_neg v.next attr

let rec pending_pos v attr =
  if v == none then 0 else Stdlib.max 0 (accepted_delta v attr) + pending_pos v.next attr

let bound_ok (b : Schema.bound) ~demarcation valuation ~pending deltas =
  let base = Value.get_int valuation.value b.Schema.attr in
  let d = attr_delta deltas b.Schema.attr in
  let lower_ok =
    match b.Schema.lower with
    | None -> true
    | Some lower -> (
      let pending_neg = pending_neg pending b.Schema.attr and delta_neg = Stdlib.min 0 d in
      match demarcation with
      | `Quorum (n, qf) -> demarcation_lower_ok ~n ~qf ~base ~lower ~pending_neg ~delta_neg
      | `Escrow -> base + pending_neg + delta_neg >= lower)
  in
  let upper_ok =
    match b.Schema.upper with
    | None -> true
    | Some upper -> (
      let pending_pos = pending_pos pending b.Schema.attr and delta_pos = Stdlib.max 0 d in
      match demarcation with
      | `Quorum (n, qf) -> demarcation_upper_ok ~n ~qf ~base ~upper ~pending_pos ~delta_pos
      | `Escrow -> base + pending_pos + delta_pos <= upper)
  in
  lower_ok && upper_ok

let rec delta_ok ~bounds ~demarcation valuation ~pending deltas =
  match bounds with
  | [] -> true
  | b :: rest ->
    bound_ok b ~demarcation valuation ~pending deltas
    && delta_ok ~bounds:rest ~demarcation valuation ~pending deltas

let rec value_in_bounds ~bounds value =
  match bounds with
  | [] -> true
  | (b : Schema.bound) :: rest ->
    Schema.check_bound b (Value.get_int value b.Schema.attr) && value_in_bounds ~bounds:rest value

type reject_reason = Version_validation | Outstanding_option | Demarcation

(* The one-outstanding-option checks: is every accepted vote of the chain
   of the allowed kind?  [no_accepted] allows none at all. *)
let rec no_accepted v =
  v == none
  || match v.decision with Woption.Accepted -> false | Woption.Rejected -> no_accepted v.next

let rec accepted_commutative v =
  v == none
  ||
  match v.decision with
  | Woption.Accepted ->
    Update.is_commutative v.woption.Woption.update && accepted_commutative v.next
  | Woption.Rejected -> accepted_commutative v.next

let rec accepted_read_guards v =
  v == none
  ||
  match v.decision with
  | Woption.Accepted -> Update.is_read_guard v.woption.Woption.update && accepted_read_guards v.next
  | Woption.Rejected -> accepted_read_guards v.next

let classify ~bounds ~demarcation valuation ~pending (up : Update.t) =
  match up with
  | Update.Insert v ->
    if valuation.exists then Some Version_validation
    else if not (no_accepted pending) then Some Outstanding_option
    else if not (value_in_bounds ~bounds v) then Some Demarcation
    else None
  | Update.Physical { vread; value } ->
    if not (valuation.exists && valuation.version = vread) then Some Version_validation
    else if not (no_accepted pending) then Some Outstanding_option
    else if not (value_in_bounds ~bounds value) then Some Demarcation
    else None
  | Update.Delete { vread } ->
    if not (valuation.exists && valuation.version = vread) then Some Version_validation
    else if not (no_accepted pending) then Some Outstanding_option
    else None
  | Update.Delta deltas ->
    if not valuation.exists then Some Version_validation
    else if not (accepted_commutative pending) then Some Outstanding_option
    else if not (delta_ok ~bounds ~demarcation valuation ~pending deltas) then Some Demarcation
    else None
  | Update.Read_guard { vread } ->
    (* Serializable reads (§4.4): valid while the read version is current
       and no write is outstanding; outstanding guards are fine (shared
       "locks" commute with each other). *)
    if valuation.version <> vread then Some Version_validation
    else if not (accepted_read_guards pending) then Some Outstanding_option
    else None

let decision_of = function None -> Woption.Accepted | Some (_ : reject_reason) -> Woption.Rejected

let evaluate ~bounds ~demarcation valuation ~pending up =
  decision_of (classify ~bounds ~demarcation valuation ~pending up)
