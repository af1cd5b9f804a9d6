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
  { woption = no_option; decision = Woption.Rejected; ballot = Ballot.initial_fast;
    proposed_at = { Engine.time = 0.0 }; next = none }

let vote ?(next = none) woption decision ballot =
  { woption; decision; ballot; proposed_at = { Engine.time = 0.0 }; next }

(* An applied set is a txid-ordered map, so iteration order, digests and
   merges are deterministic (lint R1), and txid membership is the guard
   that makes replays of commutative deltas safe. *)
let applied_missing ~mine ~theirs =
  Txn.Map.filter (fun txid _ -> not (Txn.Map.mem txid mine)) theirs

(* The [applied] field of every promoted record: a marker known by its
   address, like [none], whose set lives in its node's [Applied.store]. *)
let promoted : applied = Txn.Map.singleton "" (Update.Delta [])

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
      Invariant.violate ~context:"Acceptor.Applied" "record %s is promoted in no store"
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
    else if not (Txn.Map.mem txid t.applied) then begin
      let applied = Txn.Map.add txid update t.applied in
      if Txn.Map.cardinal applied >= promote_at then promote store t applied
      else t.applied <- applied
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

(* The pending chain is short and walked per proposal.  Only [cast] and
   [settle], below, change a chain.  Every walk is a top-level recursion
   that takes its arguments instead of capturing them in a closure, so
   walking, linking and unlinking allocate nothing. *)
let same_txid txid v = String.equal v.woption.Woption.txid txid

let rec find_from txid v =
  if v == none then raise_notrace Not_found
  else if same_txid txid v then v
  else find_from txid v.next

let mem_pending t txid =
  match find_from txid t.pending with (_ : vote) -> true | exception Not_found -> false

let rec count_from n v = if v == none then n else count_from (n + 1) v.next

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

let rec last v = if v.next == none then v else last v.next

let rec votes_from v =
  if v == none then []
  else
    { Messages.woption = v.woption; decision = v.decision; ballot = v.ballot }
    :: votes_from v.next

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

(* The one-outstanding-option checks: does every accepted vote of the
   chain pass [ok]?  [ok] is a constant closure, so a walk allocates
   nothing. *)
let rec all_accepted ok v =
  v == none
  ||
  match v.decision with
  | Woption.Accepted -> ok v.woption.Woption.update && all_accepted ok v.next
  | Woption.Rejected -> all_accepted ok v.next

let no_accepted v = all_accepted (fun _ -> false) v

let accepted_commutative v = all_accepted Update.is_commutative v

let accepted_read_guards v = all_accepted Update.is_read_guard v

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

(* ------------------------------------------------------------------ *)
(* A node's acceptor: its tables and one transition per input          *)
(* ------------------------------------------------------------------ *)

(* Visibility outcomes by (txid, key).  A lookup goes through the node's one
   [probe] key, overwritten in place, so only an insert allocates a key; a
   key hashes as the pair [(txid, key)] did. *)
type vkey = { mutable v_txid : Txn.id; mutable v_key : Key.t }

module Visible = Hashtbl.Make (struct
  type t = vkey

  let equal a b = String.equal a.v_txid b.v_txid && Key.equal a.v_key b.v_key
  let hash (k : t) = Hashtbl.hash k
end)

type node = {
  store : Store.t;
  default_classic_until : int;  (* a new record's window: [max_int] in Multi mode *)
  fast_demarcation : demarcation;  (* [`Quorum (n, qf)], built once *)
  records : t Key.Tbl.t;
  promising : unit Key.Tbl.t;
      (* records whose classic promise has seen no Phase2a at or above it
         yet: sparse, since Phase 1 runs only in a recovery *)
  visible : bool Visible.t;  (* (txid, key) -> txn committed? *)
  probe : vkey;  (* the lookup key of [visible]; never stored in it *)
  mutable free : vote;  (* released votes, linked through [next]; reused by [cast] *)
  hot : Applied.store;  (* the applied sets of records past the promotion size *)
  mutable pending_records : int;  (* records with a pending vote *)
}

let create_node ~config store =
  let default_classic_until =
    match config.Config.mode with Config.Multi -> max_int | Config.Full -> 0
  in
  (* [records] and [visible] start large: arrays this long go straight to
     the major heap, costing no minor words, and a loaded node regrows. *)
  { store; default_classic_until;
    fast_demarcation = `Quorum (config.Config.replication, Config.fast_quorum config);
    records = Key.Tbl.create 1024; promising = Key.Tbl.create 16; visible = Visible.create 4096;
    probe = { v_txid = ""; v_key = Key.make ~table:"" ~id:"" }; free = none;
    hot = Applied.store (); pending_records = 0 }

let record n key =
  match Key.Tbl.find n.records key with
  | rs -> rs
  | exception Not_found ->
    let rs =
      { key; promised = Ballot.initial_fast; classic_until = n.default_classic_until;
        pending = none; applied = Txn.Map.empty; decided = [] }
    in
    Key.Tbl.add n.records key rs;
    rs

let bounds n key = Schema.bounds_of (Store.schema n.store) key

let pending_records n = n.pending_records

let any_record f n = Key.Tbl.any f n.records

let filter_records f n = Key.Tbl.sorted_filter_map f n.records

let pending_options n =
  List.fold_left ( + ) 0
    (filter_records (fun _ rs -> match count_from 0 rs.pending with 0 -> None | k -> Some k) n)

(* The queries a driver answers a step with; none changes the record. *)
let classic_until rs = rs.classic_until

let promised rs = rs.promised

let decided rs = rs.decided

let escrow n rs up =
  classify ~bounds:(bounds n rs.key) ~demarcation:`Escrow (Store.ensure n.store rs.key)
    ~pending:rs.pending up

(* Every change to a pending chain goes through these two, so
   [pending_records] stays exact.  [cast] appends the option's vote at the
   end of the chain: an existing vote of the same transaction is moved
   there and overwritten, otherwise one comes from the node's free list,
   or is allocated when the list is empty.  The driver's clock is copied
   into the vote's cell, so once the free list is warm, voting allocates
   nothing here.  No vote is cast below the record's promise. *)
let cast n rs ~(now : Engine.stamp) (w : Woption.t) decision ballot =
  if Ballot.compare ballot rs.promised < 0 then
    Invariant.violate ~context:"Acceptor.cast" "%s: a vote below the promise"
      (Key.to_string rs.key);
  if rs.pending == none then n.pending_records <- n.pending_records + 1;
  let v = unlink rs w.Woption.txid in
  let v =
    if v != none then v
    else if n.free == none then vote no_option Woption.Rejected Ballot.initial_fast
    else begin
      let v = n.free in
      n.free <- v.next;
      v
    end
  in
  v.woption <- w;
  v.decision <- decision;
  v.ballot <- ballot;
  v.next <- none;
  v.proposed_at.Engine.time <- now.Engine.time;
  if rs.pending == none then rs.pending <- v else (last rs.pending).next <- v

(* Unlink the transaction's vote, if any, and return it to the free list,
   holding [none]'s option so that it pins no transaction. *)
let settle n rs txid =
  if rs.pending != none then begin
    let v = unlink rs txid in
    if v != none then begin
      v.woption <- no_option;
      v.next <- n.free;
      n.free <- v
    end;
    if rs.pending == none then n.pending_records <- n.pending_records - 1
  end

let probe n txid key =
  n.probe.v_txid <- txid;
  n.probe.v_key <- key;
  n.probe

(* A committed value-affecting update's outcome lives only in the applied
   set; every other outcome lives in [visible] and the decided log. *)
let outcome n rs txid =
  if Applied.mem n.hot rs txid then Some true else Visible.find_opt n.visible (probe n txid rs.key)

(* [visible] doubles as the index of the decided log, so a txid enters the
   log once however often its outcome is re-asserted.  [replace] stores
   the key it is given: a fresh one, never the probe. *)
let set_visible n rs txid committed =
  if not (Visible.mem n.visible (probe n txid rs.key)) then
    rs.decided <- (txid, committed) :: rs.decided;
  Visible.replace n.visible { v_txid = txid; v_key = rs.key } committed

(* [txid] joins the applied set on a repair path: its logged outcome, if
   any, leaves [visible] and the log.  Answers whether it was logged. *)
let unlog n rs txid =
  let k = probe n txid rs.key in
  let logged = Visible.mem n.visible k in
  if logged then begin
    Visible.remove n.visible k;
    rs.decided <- List.filter (fun (id, _) -> not (String.equal id txid)) rs.decided
  end;
  logged

let applied n key =
  match Key.Tbl.find n.records key with
  | rs -> Applied.snapshot n.hot rs
  | exception Not_found -> Txn.Map.empty

let rebase_of n key =
  let row = Store.ensure n.store key in
  { Messages.value = row.value; version = row.version; exists = row.exists;
    included = applied n key }

let rebase n key (rb : Messages.rebase) =
  let row = Store.ensure n.store key in
  if rb.Messages.version <= row.version then false
  else begin
    row.value <- rb.Messages.value;
    row.version <- rb.Messages.version;
    row.exists <- rb.Messages.exists;
    (* Membership in [included] makes a transaction visible, so a late
       Visibility cannot re-apply it (a delta carries no version guard).
       What we applied and the rebaser lacks was clobbered: it stays
       committed, now in the log, and Sync_reply repair brings its effect
       back from a replica that still holds it. *)
    let rs = record n key in
    let old = Applied.snapshot n.hot rs and included = rb.Messages.included in
    Applied.replace n.hot rs included;
    let kept =
      Txn.Map.fold
        (fun txid _ kept ->
          if Txn.Map.mem txid old then kept + 1
          else begin
            if not (unlog n rs txid) then settle n rs txid;
            kept
          end)
        included 0
    in
    (* Usually the rebaser holds everything we applied: only a count says
       so, and the walk for clobbered txids is skipped. *)
    if kept < Txn.Map.cardinal old then
      Txn.Map.iter
        (fun txid _ -> if not (Txn.Map.mem txid included) then set_visible n rs txid true)
        old;
    true
  end

let repair n rs txid update =
  ignore (unlog n rs txid : bool);
  settle n rs txid;
  Store.apply n.store rs.key update;
  Applied.add n.hot rs txid update

(* Every verdict below is a constant constructor or a structured
   constant, allocated once by the compiler. *)
type fast =
  | Outcome of bool | Standing of Woption.decision | Redirect | Vote of reject_reason option
  | Behind

let vote_verdict = function
  | None -> Vote None
  | Some Version_validation -> Vote (Some Version_validation)
  | Some Outstanding_option -> Vote (Some Outstanding_option)
  | Some Demarcation -> Vote (Some Demarcation)

let fast_propose n rs ~now (w : Woption.t) =
  match outcome n rs w.Woption.txid with
  | Some committed -> if committed then Outcome true else Outcome false
  | None -> (
    match find_from w.Woption.txid rs.pending with
    | v ->
      if v.decision = Woption.Accepted then Standing Woption.Accepted else Standing Woption.Rejected
    | exception Not_found ->
      let row = Store.ensure n.store rs.key in
      (* A promise no Phase2a has followed belongs to a master's Phase 1
         still under way: its Phase1b reported no fast vote here, so none
         may be cast until that round proposes. *)
      let era_classic =
        in_classic_era rs ~version:row.version
        || ((not (Ballot.is_fast rs.promised)) && Key.Tbl.mem n.promising rs.key)
      in
      if era_classic then Redirect
      else begin
        (* The γ window ended: lazily fall back to the implicit fast ballot. *)
        if not (Ballot.is_fast rs.promised) then rs.promised <- Ballot.initial_fast;
        let reason =
          classify ~bounds:(bounds n rs.key) ~demarcation:n.fast_demarcation row
            ~pending:rs.pending w.Woption.update
        in
        cast n rs ~now w (decision_of reason) Ballot.initial_fast;
        match w.Woption.update with
        | Update.Physical { vread; _ } | Update.Delete { vread } | Update.Read_guard { vread }
          when vread > row.version ->
          (* A read version ahead of ours means we missed an update. *)
          Behind
        | _ -> vote_verdict reason
      end)

let phase1a n rs ballot =
  let ok = Ballot.compare ballot rs.promised > 0 in
  if ok then begin
    rs.promised <- ballot;
    Key.Tbl.replace n.promising rs.key ()
  end;
  ok

let promise n rs =
  { Messages.votes = votes_from rs.pending; rebase = rebase_of n rs.key; decided = rs.decided }

let recovered_window rs ~classic_until =
  rs.classic_until <- Stdlib.max rs.classic_until classic_until

type phase2a = Refused | Voted | Known | Voted_rebased | Known_rebased

let phase2a n rs ~now ballot (w : Woption.t) decision ~classic_until ~rebase:rb =
  if Ballot.compare ballot rs.promised < 0 then Refused
  else begin
    rs.promised <- ballot;
    if Key.Tbl.length n.promising > 0 then Key.Tbl.remove n.promising rs.key;
    recovered_window rs ~classic_until;
    let rebased = match rb with Some rb -> rebase n rs.key rb | None -> false in
    if Option.is_some (outcome n rs w.Woption.txid) then if rebased then Known_rebased else Known
    else begin
      cast n rs ~now w decision ballot;
      if rebased then Voted_rebased else Voted
    end
  end

type visibility = Ignored | Unknown | Wrote | Skipped | Voided

let visibility n txid key (update : Update.t) committed =
  let known =
    match Key.Tbl.find n.records key with
    | rs -> Option.is_some (outcome n rs txid)
    | exception Not_found -> false
  in
  if known then Ignored
  else
    match update with
    | Update.Physical { vread; _ } when committed && vread < 0 ->
      (* The placeholder of a recovery that never saw this key's option.
         The pending vote stays, so conflicting rounds cannot validate
         against our stale row, until the master's state repairs us. *)
      Unknown
    | _ ->
      let rs = record n key in
      settle n rs txid;
      if not committed then begin
        set_visible n rs txid false;
        Voided
      end
      else begin
        let row = Store.ensure n.store key in
        let apply_it =
          match update with
          | Update.Physical { vread; _ } | Update.Delete { vread } ->
            (* Skip if a rebase already moved us past this instance. *)
            row.version <= vread
          | Update.Insert _ -> not row.exists
          | Update.Delta _ -> true
          | Update.Read_guard _ -> false
        in
        (* A committed value-affecting update joins the applied set even
           when a rebase already folded it in.  Read guards never change
           the value, so they are logged instead: the anti-entropy digest
           must not diverge over no-ops one replica happened to miss. *)
        (match update with
        | Update.Read_guard _ -> set_visible n rs txid true
        | Update.Insert _ | Update.Physical _ | Update.Delete _ | Update.Delta _ ->
          Applied.add n.hot rs txid update);
        if apply_it then begin
          Store.apply n.store key update;
          Wrote
        end
        else Skipped
      end

let status n txid key =
  match Key.Tbl.find n.records key with
  | exception Not_found -> Messages.Status_unknown
  | rs -> (
    match outcome n rs txid with
    | Some committed -> Messages.Status_decided committed
    | None -> (
      match find_from txid rs.pending with
      | v ->
        Messages.Status_pending
          { Messages.woption = v.woption; decision = v.decision; ballot = v.ballot }
      | exception Not_found -> Messages.Status_unknown))
