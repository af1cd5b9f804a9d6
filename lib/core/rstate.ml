open Mdcc_storage
open Mdcc_paxos
module Engine = Mdcc_sim.Engine

type pending = {
  woption : Woption.t;
  mutable decision : Woption.decision;
  mutable ballot : Ballot.t;
  mutable proposed_at : Engine.sim_time;
}

type applied = Update.t Txn.Map.t

type t = {
  key : Key.t;
  mutable promised : Ballot.t;
  mutable classic_until : int;
  mutable pending : pending list;
  mutable applied : applied;
  mutable decided : (Txn.id * bool) list;
}

let create ?(classic_until = 0) key =
  {
    key;
    promised = Ballot.initial_fast;
    classic_until;
    pending = [];
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

let mark_applied t txid update = t.applied <- applied_add t.applied txid update

(* The pending list is short and walked per proposal: these helpers take
   the txid as an argument instead of capturing it in a predicate closure,
   and copy the list only when it changes. *)
let same_txid txid p = String.equal p.woption.Woption.txid txid

let rec find_txid txid = function
  | [] -> None
  | p :: rest -> if same_txid txid p then Some p else find_txid txid rest

let rec has_txid txid = function [] -> false | p :: rest -> same_txid txid p || has_txid txid rest

let rec without_txid txid = function
  | [] -> []
  | p :: rest -> if same_txid txid p then without_txid txid rest else p :: without_txid txid rest

let rec append pending p = match pending with [] -> [ p ] | q :: rest -> q :: append rest p

let find_pending t txid = find_txid txid t.pending

let remove_pending t txid =
  if has_txid txid t.pending then t.pending <- without_txid txid t.pending

let add_pending t p =
  remove_pending t p.woption.Woption.txid;
  t.pending <- append t.pending p

let rec all_accepted = function
  | [] -> true
  | p :: rest -> p.decision = Woption.Accepted && all_accepted rest

(* Usually every pending vote is an accept: then the list itself is the
   answer and nothing is copied. *)
let accepted t =
  if all_accepted t.pending then t.pending
  else List.filter (fun p -> p.decision = Woption.Accepted) t.pending

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
   only the negative deltas; highest keeps only the positive ones. *)
let rec pending_neg accepted attr =
  match accepted with
  | [] -> 0
  | p :: rest ->
    Stdlib.min 0 (attr_delta (Update.deltas p.woption.Woption.update) attr)
    + pending_neg rest attr

let rec pending_pos accepted attr =
  match accepted with
  | [] -> 0
  | p :: rest ->
    Stdlib.max 0 (attr_delta (Update.deltas p.woption.Woption.update) attr)
    + pending_pos rest attr

let bound_ok (b : Schema.bound) ~demarcation valuation ~accepted deltas =
  let base = Value.get_int valuation.value b.Schema.attr in
  let d = attr_delta deltas b.Schema.attr in
  let lower_ok =
    match b.Schema.lower with
    | None -> true
    | Some lower -> (
      let pending_neg = pending_neg accepted b.Schema.attr and delta_neg = Stdlib.min 0 d in
      match demarcation with
      | `Quorum (n, qf) -> demarcation_lower_ok ~n ~qf ~base ~lower ~pending_neg ~delta_neg
      | `Escrow -> base + pending_neg + delta_neg >= lower)
  in
  let upper_ok =
    match b.Schema.upper with
    | None -> true
    | Some upper -> (
      let pending_pos = pending_pos accepted b.Schema.attr and delta_pos = Stdlib.max 0 d in
      match demarcation with
      | `Quorum (n, qf) -> demarcation_upper_ok ~n ~qf ~base ~upper ~pending_pos ~delta_pos
      | `Escrow -> base + pending_pos + delta_pos <= upper)
  in
  lower_ok && upper_ok

let rec delta_ok ~bounds ~demarcation valuation ~accepted deltas =
  match bounds with
  | [] -> true
  | b :: rest ->
    bound_ok b ~demarcation valuation ~accepted deltas
    && delta_ok ~bounds:rest ~demarcation valuation ~accepted deltas

let rec value_in_bounds ~bounds value =
  match bounds with
  | [] -> true
  | (b : Schema.bound) :: rest ->
    Schema.check_bound b (Value.get_int value b.Schema.attr) && value_in_bounds ~bounds:rest value

type reject_reason = Version_validation | Outstanding_option | Demarcation

(* The same conjunctions as the original single-expression [evaluate], but
   evaluated in a fixed order so a rejection names its {e first} failing
   clause: committed-state/version validation, then the one-outstanding-
   option rule, then value bounds / quorum demarcation.  The ordering
   cannot change the decision — only which reason a multiply-invalid
   option reports. *)
let classify ~bounds ~demarcation valuation ~accepted (up : Update.t) =
  let no_outstanding = accepted = [] in
  let no_outstanding_physical =
    List.for_all (fun p -> Update.is_commutative p.woption.Woption.update) accepted
  in
  match up with
  | Update.Insert v ->
    if valuation.exists then Some Version_validation
    else if not no_outstanding then Some Outstanding_option
    else if not (value_in_bounds ~bounds v) then Some Demarcation
    else None
  | Update.Physical { vread; value } ->
    if not (valuation.exists && valuation.version = vread) then Some Version_validation
    else if not no_outstanding then Some Outstanding_option
    else if not (value_in_bounds ~bounds value) then Some Demarcation
    else None
  | Update.Delete { vread } ->
    if not (valuation.exists && valuation.version = vread) then Some Version_validation
    else if not no_outstanding then Some Outstanding_option
    else None
  | Update.Delta deltas ->
    if not valuation.exists then Some Version_validation
    else if not no_outstanding_physical then Some Outstanding_option
    else if not (delta_ok ~bounds ~demarcation valuation ~accepted deltas) then
      Some Demarcation
    else None
  | Update.Read_guard { vread } ->
    (* Serializable reads (§4.4): valid while the read version is current
       and no write is outstanding; outstanding guards are fine (shared
       "locks" commute with each other). *)
    if valuation.version <> vread then Some Version_validation
    else if
      not
        (List.for_all (fun p -> Update.is_read_guard p.woption.Woption.update) accepted)
    then Some Outstanding_option
    else None

let decision_of = function None -> Woption.Accepted | Some (_ : reject_reason) -> Woption.Rejected

let evaluate ~bounds ~demarcation valuation ~accepted up =
  decision_of (classify ~bounds ~demarcation valuation ~accepted up)
