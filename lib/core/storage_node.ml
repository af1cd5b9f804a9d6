open Mdcc_storage
open Mdcc_paxos
module Rng = Mdcc_util.Rng
module Table = Mdcc_util.Table
module Obs = Mdcc_obs.Obs

(* A classic Phase 2 round this master is running for one option. *)
type round = {
  r_opt : Woption.t;
  r_dec : Woption.decision;
  r_ballot : Ballot.t;
  mutable r_acks : int list;
  mutable r_notify : int list;
}

(* Collision recovery / mastership acquisition in progress for one record. *)
type recovery = {
  mutable rc_ballot : Ballot.t;
  mutable rc_resp : (int * Messages.vote list * Messages.rebase * (Txn.id * bool) list) list;
  mutable rc_extras : Woption.t list;
  mutable rc_notify : int list;
  mutable rc_done : bool;
}

(* Master-role state for one record. *)
type mstate = {
  m_key : Key.t;
  mutable m_led : Ballot.t option;
  mutable m_highest : int;
  mutable m_rounds : round list;
  mutable m_queue : (Woption.t * int list) list;
  mutable m_recovery : recovery option;
}

(* Dangling-transaction recovery in progress at this node. *)
type txrec = {
  tx_id : Txn.id;
  tx_keys : Key.t list;
  mutable tx_opts : Woption.t Key.Map.t;
  mutable tx_replies : (int * Messages.status) list Key.Map.t;
  mutable tx_learned : Woption.decision Key.Map.t;
  mutable tx_asked : Key.Set.t;  (* keys already escalated to their master *)
  mutable tx_done : bool;
}

(* Visibility outcomes keyed by (txid, key) as they arrive, so a lookup
   renders neither.  A lookup goes through the node's one [probe] key,
   overwritten in place, so only an insert allocates a key.  A key has the
   pair's block shape, so it hashes as the pair [(txid, key)] did. *)
type vkey = { mutable v_txid : Txn.id; mutable v_key : Key.t }

module Visible = Hashtbl.Make (struct
  type t = vkey

  let equal a b = String.equal a.v_txid b.v_txid && Key.equal a.v_key b.v_key
  let hash (k : t) = Hashtbl.hash k
end)

type t = {
  runtime : Runtime.t;
  config : Config.t;
  id : int;
  schema : Schema.t;
  replicas : Key.t -> int list;
  master_of : Key.t -> int;
  store : Store.t;
  records : Rstate.t Key.Tbl.t;
  visible : bool Visible.t;  (* (txid, key) -> txn committed? *)
  probe : vkey;  (* the lookup key of [visible]; never stored in it *)
  fast_demarcation : Rstate.demarcation;  (* [`Quorum (n, qf)], built once *)
  masters : mstate Key.Tbl.t;
  recoveries : (Txn.id, txrec) Hashtbl.t;
  rng : Rng.t;
  obs : Obs.t;
  diverged : (int * Key.t, unit) Hashtbl.t;
      (* (src, key) pairs currently known diverged at equal version (applied
         anti-entropy digests differ); drives the diverged_replicas gauge *)
  stream : Ctx.stream;  (* this node's protocol events *)
  option_accept : Obs.counter;  (* the per-message counters, resolved once *)
  visibility_exec : Obs.counter;
}

let node_id t = t.id

let store t = t.store

let default_classic_until config =
  match config.Config.mode with Config.Multi -> max_int | Config.Full | Config.Fast_only -> 0

let rstate t key =
  match Key.Tbl.find t.records key with
  | rs -> rs
  | exception Not_found ->
    let rs = Rstate.create ~classic_until:(default_classic_until t.config) key in
    Key.Tbl.add t.records key rs;
    rs

let probe t txid key =
  t.probe.v_txid <- txid;
  t.probe.v_key <- key;
  t.probe

let visible_outcome t txid key = Visible.find_opt t.visible (probe t txid key)

let is_visible t txid key = Visible.mem t.visible (probe t txid key)

(* Record a final visibility outcome.  [visible] doubles as the index of the
   record's decided log, so a (txid, key) enters the log once, when first
   seen, however often its outcome is re-asserted later.  [replace] stores
   the key it is given, so it gets a fresh one, never the probe. *)
let set_visible t (rs : Rstate.t) txid key committed =
  if not (is_visible t txid key) then
    rs.Rstate.decided <- (txid, committed) :: rs.Rstate.decided;
  Visible.replace t.visible { v_txid = txid; v_key = key } committed

(* The applied set lives on the record's Rstate — the authoritative list of
   committed updates folded into our copy of [key], which is what the
   anti-entropy digest must summarize.  (The decided log is the wrong
   source: it also remembers committed read guards, which never change the
   value, and keeps txids whose effect a later rebase clobbered.) *)
let applied_of t key = Txn.Map.bindings (rstate t key).Rstate.applied

let applied_digest_of t key = Messages.applied_digest (rstate t key).Rstate.applied

(* A snapshot of our committed state, tagged with every transaction folded
   into it. *)
let rebase_of t key =
  let row = Store.ensure t.store key in
  {
    Messages.value = row.Store.value;
    version = row.Store.version;
    exists = row.Store.exists;
    included = applied_of t key;
  }

let mstate t key =
  match Key.Tbl.find_opt t.masters key with
  | Some ms -> ms
  | None ->
    let led =
      (* In Multi mode the statically-assigned master owns an implicit
         classic ballot from the start (stable master, Phase 1 skipped). *)
      if t.config.Config.mode = Config.Multi && t.master_of key = t.id then
        Some (Ballot.classic ~number:1 ~proposer:t.id)
      else None
    in
    let ms =
      { m_key = key; m_led = led; m_highest = 1; m_rounds = []; m_queue = []; m_recovery = None }
    in
    Key.Tbl.add t.masters key ms;
    ms

let bounds t key = Schema.bounds_of t.schema key

let send t dst payload = Runtime.send t.runtime ~src:t.id ~dst payload

(* Send [payload] to every replica in the list, in order, except that this
   node runs [local] in its own place instead of messaging itself. *)
let rec fan_out t payload local = function
  | [] -> ()
  | replica :: rest ->
    if replica = t.id then local () else send t replica payload;
    fan_out t payload local rest

let now t = Runtime.now t.runtime

(* An event is built only when a consumer is live: [if live t then emit t ...]. *)
let live t = Ctx.live t.stream

let emit t ev = Ctx.emit t.stream ev

let reject_counter = function
  | Rstate.Version_validation -> "option_reject_version"
  | Rstate.Outstanding_option -> "option_reject_outstanding"
  | Rstate.Demarcation -> "option_reject_demarcation"

let count_verdict t reason =
  match reason with
  | None -> Obs.bump t.option_accept
  | Some r -> Obs.incr t.obs (reject_counter r)

(* ------------------------------------------------------------------ *)
(* Acceptor role                                                       *)
(* ------------------------------------------------------------------ *)

let fast_reply t (w : Woption.t) decision =
  send t w.Woption.coordinator
    (Messages.Phase2b_fast
       { key = w.Woption.key; txid = w.Woption.txid; decision; acceptor = t.id })

(* Answer a fast (master-bypassing) proposal: SetCompatible + promise to the
   first proposer, or a redirect while the record runs classic ballots. *)
let fast_propose t (w : Woption.t) =
  let key = w.Woption.key in
  let rs = rstate t key in
  match visible_outcome t w.Woption.txid key with
  | Some committed -> fast_reply t w (if committed then Woption.Accepted else Woption.Rejected)
  | None -> (
    match Rstate.find_pending rs w.Woption.txid with
    | Some p -> fast_reply t w p.Rstate.decision
    | None ->
      let row = Store.ensure t.store key in
      let era_classic = Rstate.in_classic_era rs ~version:row.Store.version in
      if (not era_classic) && not (Ballot.is_fast rs.Rstate.promised) then
        (* The γ window ended: lazily fall back to the implicit fast ballot. *)
        rs.Rstate.promised <- Ballot.initial_fast;
      if era_classic then
        send t w.Woption.coordinator
          (Messages.Redirect
             {
               key;
               txid = w.Woption.txid;
               master = t.master_of key;
               classic_until = rs.Rstate.classic_until;
             })
      else begin
        (* A physical update whose vread is ahead of us means we missed an
           update: ask the master for the committed state (anti-entropy). *)
        (match w.Woption.update with
        | Update.Physical { vread; _ } | Update.Delete { vread } | Update.Read_guard { vread } ->
          if vread > row.Store.version && t.master_of key <> t.id then
            send t (t.master_of key) (Messages.Catchup_request { key })
        | Update.Insert _ | Update.Delta _ -> ());
        let reason =
          Rstate.classify ~bounds:(bounds t key) ~demarcation:t.fast_demarcation row
            ~accepted:(Rstate.accepted rs) w.Woption.update
        in
        let decision = Rstate.decision_of reason in
        count_verdict t reason;
        Rstate.add_pending rs
          {
            Rstate.woption = w;
            decision;
            ballot = Ballot.initial_fast;
            proposed_at = now t;
          };
        if live t then
          emit t (Event.Voted { txid = w.Woption.txid; key; vote = Event.Fast reason });
        fast_reply t w decision
      end)

(* Phase1b contents, as a tuple so the master can be invoked synchronously
   for its own replica. *)
let acceptor_phase1a t key ballot =
  let rs = rstate t key in
  let ok = Ballot.compare ballot rs.Rstate.promised > 0 in
  if ok then rs.Rstate.promised <- ballot;
  let votes =
    List.map
      (fun (p : Rstate.pending) ->
        { Messages.woption = p.Rstate.woption; decision = p.Rstate.decision; ballot = p.Rstate.ballot })
      rs.Rstate.pending
  in
  (ok, rs.Rstate.promised, votes, rebase_of t key, rs.Rstate.decided)

let apply_rebase t key (rb : Messages.rebase) =
  let row = Store.ensure t.store key in
  if rb.Messages.version > row.Store.version then begin
    Obs.incr t.obs "antientropy_repair";
    row.Store.value <- rb.Messages.value;
    row.Store.version <- rb.Messages.version;
    row.Store.exists <- rb.Messages.exists;
    (* The re-based state already reflects these transactions: mark them
       visible so a late Visibility cannot re-apply them (deltas carry no
       version guard, so a commutative update would otherwise be counted
       twice), and drop any still-pending option they left behind.  The
       applied set becomes exactly [included] — the value now reflects
       those transactions and no others; anything we had applied that the
       rebaser lacked was clobbered with the overwrite and will come back
       through Sync_reply repair from a replica that still holds it. *)
    let rs = rstate t key in
    rs.Rstate.applied <- Txn.Map.of_list rb.Messages.included;
    List.iter
      (fun (txid, _update) ->
        if not (is_visible t txid key) then begin
          set_visible t rs txid key true;
          Rstate.remove_pending rs txid
        end)
      rb.Messages.included
  end

let acceptor_phase2a t key ballot (w : Woption.t) decision classic_until rebase =
  let rs = rstate t key in
  if Ballot.compare ballot rs.Rstate.promised >= 0 then begin
    rs.Rstate.promised <- ballot;
    rs.Rstate.classic_until <- Stdlib.max rs.Rstate.classic_until classic_until;
    (match rebase with Some rb -> apply_rebase t key rb | None -> ());
    match visible_outcome t w.Woption.txid key with
    | Some committed ->
      (* The option's visibility already executed here: that decision is
         final, answer it instead of the proposer's. *)
      (true, ballot, if committed then Woption.Accepted else Woption.Rejected)
    | None ->
      Rstate.add_pending rs { Rstate.woption = w; decision; ballot; proposed_at = now t };
      if live t then
        emit t (Event.Voted { txid = w.Woption.txid; key; vote = Event.Classic decision });
      (true, ballot, decision)
  end
  else (false, rs.Rstate.promised, decision)

(* Execute or void an option (Algorithm 3, ApplyVisibility). *)
let visibility t txid key (update : Update.t) committed =
  let unknown_update =
    (* A recovery that learned the transaction committed without ever seeing
       this key's real option ships a placeholder update (vread = -1). *)
    committed && match update with Update.Physical { vread; _ } -> vread < 0 | _ -> false
  in
  if unknown_update then begin
    (* We cannot execute what we do not know.  Refuse the message: the
       pending vote stays (so conflicting rounds cannot validate against our
       stale row) and the master's committed state — whose rebase watermark
       settles this transaction — repairs us instead. *)
    if not (is_visible t txid key) then begin
      if live t then emit t (Event.Unknown_update { txid; key });
      if t.master_of key <> t.id then
        send t (t.master_of key) (Messages.Catchup_request { key })
    end
  end
  else if not (is_visible t txid key) then begin
    let rs = rstate t key in
    set_visible t rs txid key committed;
    Rstate.remove_pending rs txid;
    if committed then begin
      let row = Store.ensure t.store key in
      let apply_it =
        match update with
        | Update.Physical { vread; _ } | Update.Delete { vread } ->
          (* Skip if a rebase already moved us past this instance. *)
          row.Store.version <= vread
        | Update.Insert _ -> not row.Store.exists
        | Update.Delta _ -> true
        | Update.Read_guard _ -> false
      in
      (* Track every committed value-affecting update in the record's
         applied set (even when the physical apply is skipped — a skip
         means a rebase already folded the effect in).  Read guards never
         change the value, so they stay out: the anti-entropy digest must
         not diverge over no-ops one replica happened to miss. *)
      (match update with
      | Update.Read_guard _ -> ()
      | Update.Insert _ | Update.Physical _ | Update.Delete _ | Update.Delta _ ->
        Rstate.mark_applied rs txid update);
      if apply_it then Store.apply t.store key update;
      Obs.bump t.visibility_exec;
      if live t then
        emit t
          (Event.Applied
             { txid; key; version = row.Store.version; value = row.Store.value; wrote = apply_it })
    end
    else begin
      Obs.incr t.obs "visibility_void";
      if live t then emit t (Event.Voided { txid; key })
    end
  end

let status_query t ~src txid key =
  let status =
    match visible_outcome t txid key with
    | Some committed -> Messages.Status_decided committed
    | None -> (
      match Rstate.find_pending (rstate t key) txid with
      | Some p ->
        Messages.Status_pending
          { Messages.woption = p.Rstate.woption; decision = p.Rstate.decision; ballot = p.Rstate.ballot }
      | None -> Messages.Status_unknown)
  in
  send t src (Messages.Status_reply { txid; key; status; acceptor = t.id })

(* ------------------------------------------------------------------ *)
(* Master role                                                         *)
(* ------------------------------------------------------------------ *)

let qc t = Config.classic_quorum t.config

let dedup_add x xs = if List.mem x xs then xs else x :: xs

let union a b = List.fold_left (fun acc x -> dedup_add x acc) a b

(* The decision that at least [threshold] of [votes] agree on, acceptance
   first. *)
let tally threshold votes =
  let rec count acc rej = function
    | [] ->
      if acc >= threshold then Some Woption.Accepted
      else if rej >= threshold then Some Woption.Rejected
      else None
    | Woption.Accepted :: tl -> count (acc + 1) rej tl
    | Woption.Rejected :: tl -> count acc (rej + 1) tl
  in
  count 0 0 votes

let rec master_phase2b t ~src key txid ballot ok =
  let ms = mstate t key in
  match List.find_opt (fun r -> String.equal r.r_opt.Woption.txid txid) ms.m_rounds with
  | None -> ()
  | Some r ->
    if not (Ballot.equal r.r_ballot ballot) then ()
    else if ok then begin
      r.r_acks <- dedup_add src r.r_acks;
      if List.length r.r_acks >= qc t then begin
        ms.m_rounds <- List.filter (fun r' -> r' != r) ms.m_rounds;
        announce t key r.r_opt r.r_notify r.r_dec;
        Obs.incr t.obs "classic_learned";
        if live t then emit t (Event.Classic_learned { txid; key; decision = r.r_dec });
        process_queue t key
      end
    end
    else begin
      (* Someone holds a higher ballot: step down and re-decide the option
         through full recovery. *)
      ms.m_highest <- Stdlib.max ms.m_highest ballot.Ballot.number;
      ms.m_led <- None;
      ms.m_rounds <- List.filter (fun r' -> r' != r) ms.m_rounds;
      start_recovery t key ~extras:[ r.r_opt ] ~notify:r.r_notify
    end

(* Tell the option's coordinator and everyone in [notify] the decision;
   this node learns it directly. *)
and announce t key (w : Woption.t) notify decision =
  let txid = w.Woption.txid in
  List.iter
    (fun dst ->
      if dst = t.id then txn_recovery_learned t txid key decision
      else send t dst (Messages.Learned { key; txid; decision }))
    (union [ w.Woption.coordinator ] notify)

and broadcast_phase2a t key ballot (w : Woption.t) decision ~classic_until ~rebase =
  fan_out t
    (Messages.Phase2a { key; ballot; woption = w; decision; classic_until; rebase })
    (fun () ->
      let ok, b, _ = acceptor_phase2a t key ballot w decision classic_until rebase in
      master_phase2b t ~src:t.id key w.Woption.txid b ok)
    (t.replicas key)

(* Stable-master classic round: validate with escrow against our own state
   (our own pendings mirror every in-flight classic option) and replicate the
   decision. *)
and start_round t key (w : Woption.t) ~notify =
  let ms = mstate t key in
  match ms.m_led with
  | None -> start_recovery t key ~extras:[ w ] ~notify
  | Some ballot ->
    let rs = rstate t key in
    let row = Store.ensure t.store key in
    let reason =
      Rstate.classify ~bounds:(bounds t key) ~demarcation:`Escrow row
        ~accepted:(Rstate.accepted rs) w.Woption.update
    in
    let decision = Rstate.decision_of reason in
    count_verdict t reason;
    let r = { r_opt = w; r_dec = decision; r_ballot = ballot; r_acks = []; r_notify = notify } in
    ms.m_rounds <- r :: ms.m_rounds;
    broadcast_phase2a t key ballot w decision ~classic_until:rs.Rstate.classic_until ~rebase:None

and can_run_now t key (w : Woption.t) =
  let ms = mstate t key in
  ms.m_recovery = None
  && (ms.m_rounds = []
     || (Update.is_commutative w.Woption.update
        && List.for_all (fun r -> Update.is_commutative r.r_opt.Woption.update) ms.m_rounds))

and process_queue t key =
  let ms = mstate t key in
  match ms.m_queue with
  | [] -> ()
  | (w, notify) :: rest ->
    if ms.m_recovery = None && ms.m_led <> None && can_run_now t key w then begin
      ms.m_queue <- rest;
      start_round t key w ~notify;
      process_queue t key
    end

and master_propose t (w : Woption.t) ~notify =
  let key = w.Woption.key in
  let txid = w.Woption.txid in
  let ms = mstate t key in
  let rs = rstate t key in
  match visible_outcome t txid key with
  | Some committed ->
    announce t key w notify (if committed then Woption.Accepted else Woption.Rejected)
  | None -> (
    match List.find_opt (fun r -> String.equal r.r_opt.Woption.txid txid) ms.m_rounds with
    | Some r -> r.r_notify <- union r.r_notify notify
    | None -> (
      match (ms.m_recovery, Rstate.find_pending rs txid) with
      | Some _, _ | None, Some _ ->
        (* Join the recovery in progress.  Or a local vote for the option
           exists — fast, or classic from a round we no longer track.
           Either way a vote is not a decision (the round may have died
           short of a quorum), and re-running a fresh round against our own
           state would have the option conflicting with its own pending
           vote.  Recovery reads a quorum and classifies the vote
           correctly. *)
        start_recovery t key ~extras:[ w ] ~notify
      | None, None ->
        let row = Store.ensure t.store key in
        let era_classic = Rstate.in_classic_era rs ~version:row.Store.version in
        if ms.m_led <> None && era_classic then begin
          if ms.m_queue = [] && can_run_now t key w then start_round t key w ~notify
          else ms.m_queue <- ms.m_queue @ [ (w, notify) ]
        end
        else start_recovery t key ~extras:[ w ] ~notify))

(* Collision recovery: Phase 1 to everybody, then decide every pending
   option safely and re-propose at a classic ballot. *)
and start_recovery t key ~extras ~notify =
  let ms = mstate t key in
  match ms.m_recovery with
  | Some rc ->
    List.iter
      (fun w ->
        if not (List.exists (fun o -> String.equal o.Woption.txid w.Woption.txid) rc.rc_extras)
        then rc.rc_extras <- w :: rc.rc_extras)
      extras;
    rc.rc_notify <- union rc.rc_notify notify
  | None ->
    ms.m_led <- None;
    (* Fold any interrupted rounds and queued work into the recovery. *)
    let extras =
      extras
      @ List.map (fun r -> r.r_opt) ms.m_rounds
      @ List.map fst ms.m_queue
    in
    let notify = union notify (List.concat_map (fun r -> r.r_notify) ms.m_rounds) in
    let notify = union notify (List.concat_map snd ms.m_queue) in
    ms.m_rounds <- [];
    ms.m_queue <- [];
    ms.m_highest <- ms.m_highest + 1;
    let rc =
      {
        rc_ballot = Ballot.classic ~number:ms.m_highest ~proposer:t.id;
        rc_resp = [];
        rc_extras = extras;
        rc_notify = notify;
        rc_done = false;
      }
    in
    ms.m_recovery <- Some rc;
    Obs.incr t.obs "recovery_start";
    if live t then emit t (Event.Master_recovery_started { key; ballot = ms.m_highest });
    broadcast_phase1a t key rc;
    watch_recovery t key rc

and broadcast_phase1a t key rc =
  Obs.incr t.obs "phase1_round";
  let ballot = rc.rc_ballot in
  fan_out t (Messages.Phase1a { key; ballot })
    (fun () ->
      let ok, promised, votes, rb, decided = acceptor_phase1a t key ballot in
      master_phase1b t ~src:t.id key ballot ok promised votes rb decided)
    (t.replicas key)

(* Re-drive Phase 1 if the recovery stalls (lost messages, failed DC). *)
and watch_recovery t key rc =
  let timeout = t.config.Config.learn_timeout +. Rng.float t.rng 200.0 in
  ignore
    (Runtime.set_timer t.runtime ~after:timeout (fun () ->
         let ms = mstate t key in
         match ms.m_recovery with
         | Some rc' when rc' == rc && not rc.rc_done ->
           ms.m_highest <- ms.m_highest + 1;
           rc.rc_ballot <- Ballot.classic ~number:ms.m_highest ~proposer:t.id;
           rc.rc_resp <- [];
           broadcast_phase1a t key rc;
           watch_recovery t key rc
         | Some _ | None -> ()))

and master_phase1b t ~src key ballot ok promised votes rebase decided =
  let ms = mstate t key in
  match ms.m_recovery with
  | Some rc when Ballot.equal ballot rc.rc_ballot && not rc.rc_done ->
    if ok then begin
      if not (List.exists (fun (a, _, _, _) -> a = src) rc.rc_resp) then
        rc.rc_resp <- (src, votes, rebase, decided) :: rc.rc_resp;
      if List.length rc.rc_resp >= qc t then resolve_recovery t key rc
    end
    else begin
      (* Nacked: someone promised higher; back off and retry above it. *)
      ms.m_highest <- Stdlib.max ms.m_highest promised.Ballot.number;
      ms.m_highest <- ms.m_highest + 1;
      rc.rc_ballot <- Ballot.classic ~number:ms.m_highest ~proposer:t.id;
      rc.rc_resp <- [];
      let backoff = 20.0 +. Rng.float t.rng 150.0 in
      ignore
        (Runtime.set_timer t.runtime ~after:backoff (fun () ->
             match ms.m_recovery with
             | Some rc' when rc' == rc && not rc.rc_done -> broadcast_phase1a t key rc
             | Some _ | None -> ()))
    end
  | Some _ | None -> ()

and resolve_recovery t key rc =
  let ms = mstate t key in
  (* Re-base: the freshest committed state any responder reported. *)
  let rebase =
    List.fold_left
      (fun best (_, _, rb, _) ->
        if rb.Messages.version > best.Messages.version then rb else best)
      (rebase_of t key) rc.rc_resp
  in
  apply_rebase t key rebase;
  (* Candidate options: every pending vote reported, plus escalated extras. *)
  let candidates : (string, Woption.t * (Woption.decision * Ballot.t) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (_, votes, _, _) ->
      List.iter
        (fun (v : Messages.vote) ->
          let txid = v.Messages.woption.Woption.txid in
          let w, vs =
            match Hashtbl.find_opt candidates txid with
            | Some (w, vs) -> (w, vs)
            | None -> (v.Messages.woption, [])
          in
          Hashtbl.replace candidates txid (w, (v.Messages.decision, v.Messages.ballot) :: vs))
        votes)
    rc.rc_resp;
  List.iter
    (fun (w : Woption.t) ->
      if not (Hashtbl.mem candidates w.Woption.txid) then
        Hashtbl.replace candidates w.Woption.txid (w, []))
    rc.rc_extras;
  (* Visibility outcomes known anywhere in the quorum (or locally) are final
     — a concurrent recovery already executed or voided these options, and
     this ballot must confirm, not contradict, them. *)
  let known_viz : (Txn.id, bool) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (txid, c) -> Hashtbl.replace known_viz txid c) (rstate t key).Rstate.decided;
  List.iter
    (fun (_, _, _, decided) ->
      List.iter (fun (txid, c) -> Hashtbl.replace known_viz txid c) decided)
    rc.rc_resp;
  (* Split candidates: decided-by-visibility, classic-voted (a vote cast in
     some classic round — for each option only its highest-ballot vote
     matters), fast-threshold ("might have been chosen" at the fast
     ballot), and free.  Every undecided option is paired with the decision
     its votes force, if any. *)
  let threshold =
    Quorum.anchor_threshold ~n:t.config.Config.replication ~f:(Config.fast_quorum t.config)
      ~responded:(List.length rc.rc_resp)
  in
  let already_visible = ref [] and classic_voted = ref [] and fast_forced = ref [] in
  let free = ref [] in
  (* Sorted by txid: the order candidates are classified (and therefore the
     order recovered options re-propose) must not depend on hash order. *)
  Table.sorted_iter ~compare:String.compare
    (fun txid (w, votes) ->
      match Hashtbl.find_opt known_viz txid with
      | Some committed ->
        already_visible :=
          (w, if committed then Woption.Accepted else Woption.Rejected) :: !already_visible
      | None -> (
        let classic_votes =
          List.filter (fun (_, b) -> not (Ballot.is_fast b)) votes
          |> List.sort (fun (_, b1) (_, b2) -> Ballot.compare b2 b1)
        in
        match classic_votes with
        | (d, b) :: _ -> classic_voted := (b, (w, Some d)) :: !classic_voted
        | [] -> (
          match tally threshold (List.map fst votes) with
          | Some _ as forced -> fast_forced := (w, forced) :: !fast_forced
          | None -> free := (w, None) :: !free)))
    candidates;
  let base_val =
    {
      Rstate.value = rebase.Messages.value;
      version = rebase.Messages.version;
      exists = rebase.Messages.exists;
    }
  in
  let instance_of (w : Woption.t) =
    match w.Woption.update with
    | Update.Physical { vread; _ } | Update.Delete { vread } | Update.Read_guard { vread } ->
      vread
    | Update.Insert _ -> 0
    | Update.Delta _ -> max_int
  in
  let by_instance =
    List.sort (fun ((a : Woption.t), _) ((b : Woption.t), _) ->
        match Int.compare (instance_of a) (instance_of b) with
        | 0 -> String.compare a.Woption.txid b.Woption.txid
        | c -> c)
  in
  let classic_forced =
    List.sort (fun (b1, _) (b2, _) -> Ballot.compare b2 b1) !classic_voted |> List.map snd
  in
  let fast_forced = by_instance !fast_forced and free = by_instance !free in
  (* Validate in one pass — classic-voted by ballot, highest first, then
     fast-forced, then free, the last two oldest instance first — each
     option against the re-based state plus every option accepted before
     it.  A forced reject stands, and so does a forced commutative accept:
     deltas carry no instance to conflict on.  A forced non-commutative
     accept is re-validated.
     A classic vote proves the option *might* have been chosen in that
     round, nothing more: the round may have died short of a quorum, and its
     stale vote can linger in an acceptor's log long after a higher ballot
     chose a conflicting option (whose own votes vanish once visibility
     executes them).  Highest ballot first is what makes re-validation
     safe: had the option truly been chosen, a classic quorum voted for it,
     every later recovery quorum intersects that one, so no conflicting
     option could have been chosen since — the re-based state still
     satisfies it and re-validation re-accepts it.  An option re-validation
     rejects provably was never chosen.  Fast votes likewise only prove an
     option *might* have been chosen (the rest of the fast quorum is
     outside this view); one that no longer applies to the re-based state,
     or conflicts with an option validated before it, cannot in fact have
     been chosen — a fast quorum would have had to intersect the classic /
     rebasing quorum — so it is rejected, not committed alongside. *)
  let outcomes, _ =
    List.fold_left
      (fun (outcomes, accepted) ((w : Woption.t), forced) ->
        let d =
          match forced with
          | Some d when d = Woption.Rejected || Update.is_commutative w.Woption.update -> d
          | Some _ | None ->
            Rstate.evaluate ~bounds:(bounds t key) ~demarcation:`Escrow base_val ~accepted
              w.Woption.update
        in
        let accepted =
          if d = Woption.Accepted then
            { Rstate.woption = w; decision = d; ballot = rc.rc_ballot; proposed_at = now t }
            :: accepted
          else accepted
        in
        ((w, d) :: outcomes, accepted))
      ([], [])
      (classic_forced @ fast_forced @ free)
  in
  let outcomes = List.rev outcomes in
  (* Install the classic window and become the stable master. *)
  let classic_until =
    match t.config.Config.mode with
    | Config.Multi -> max_int
    | Config.Full | Config.Fast_only -> rebase.Messages.version + t.config.Config.gamma
  in
  let rs = rstate t key in
  rs.Rstate.classic_until <- Stdlib.max rs.Rstate.classic_until classic_until;
  rc.rc_done <- true;
  ms.m_recovery <- None;
  ms.m_led <- Some rc.rc_ballot;
  (* Options already executed: just tell everyone who asked. *)
  List.iter (fun (w, d) -> announce t key w rc.rc_notify d) !already_visible;
  (* Re-propose every undecided option at the classic ballot. *)
  List.iter
    (fun ((w : Woption.t), d) ->
      let r =
        { r_opt = w; r_dec = d; r_ballot = rc.rc_ballot; r_acks = []; r_notify = rc.rc_notify }
      in
      ms.m_rounds <- r :: ms.m_rounds)
    outcomes;
  List.iter
    (fun ((w : Woption.t), d) ->
      broadcast_phase2a t key rc.rc_ballot w d ~classic_until ~rebase:(Some rebase))
    outcomes;
  if live t then
    emit t
      (Event.Master_recovery_resolved
         {
           key;
           options = List.length outcomes;
           forced = List.length classic_forced + List.length fast_forced;
           free = List.length free;
         })

(* ------------------------------------------------------------------ *)
(* Dangling-transaction recovery (app-server failure, §3.2.3)          *)
(* ------------------------------------------------------------------ *)

and txn_recovery_learned t txid key decision =
  match Hashtbl.find_opt t.recoveries txid with
  | None -> ()
  | Some tr ->
    if not (Key.Map.mem key tr.tx_learned) then begin
      tr.tx_learned <- Key.Map.add key decision tr.tx_learned;
      evaluate_txn_recovery t tr
    end

and synthetic_reject_option t txid key keys =
  (* Seal an instance for an option no replica has ever seen: a physical
     update with an impossible read version is deterministically rejected,
     which makes the abort durable. *)
  {
    Woption.txid;
    key;
    update = Update.Physical { vread = -1; value = Value.empty };
    write_set = keys;
    coordinator = t.id;
  }

and evaluate_txn_recovery t tr =
  if not tr.tx_done then begin
    (* Short-circuit: any replica that already executed a Visibility knows
       the whole transaction's outcome. *)
    let decided_outcome =
      Key.Map.fold
        (fun _ replies acc ->
          match acc with
          | Some _ -> acc
          | None ->
            List.fold_left
              (fun acc (_, st) ->
                match (acc, st) with
                | None, Messages.Status_decided c -> Some c
                | acc, (Messages.Status_decided _ | Messages.Status_pending _ | Messages.Status_unknown) ->
                  acc)
              None replies)
        tr.tx_replies None
    in
    (* Record any options we learned about from pending votes. *)
    Key.Map.iter
      (fun key replies ->
        List.iter
          (fun (_, st) ->
            match st with
            | Messages.Status_pending v ->
              if not (Key.Map.mem key tr.tx_opts) then
                tr.tx_opts <- Key.Map.add key v.Messages.woption tr.tx_opts
            | Messages.Status_decided _ | Messages.Status_unknown -> ())
          replies)
      tr.tx_replies;
    let key_decision key =
      match Key.Map.find_opt key tr.tx_learned with
      | Some d -> Some d
      | None -> (
        match Key.Map.find_opt key tr.tx_replies with
        | None -> None
        | Some replies ->
          tally (Config.fast_quorum t.config)
            (List.filter_map
               (fun (_, st) ->
                 match st with
                 | Messages.Status_pending v -> Some v.Messages.decision
                 | Messages.Status_decided _ | Messages.Status_unknown -> None)
               replies))
    in
    match decided_outcome with
    | Some committed -> finish_txn_recovery t tr committed
    | None ->
      let undecided = List.filter (fun k -> key_decision k = None) tr.tx_keys in
      if undecided = [] then begin
        let committed =
          List.for_all (fun k -> key_decision k = Some Woption.Accepted) tr.tx_keys
        in
        finish_txn_recovery t tr committed
      end
      else
        (* Escalate undecided instances to their masters once we have heard
           from a classic quorum for that key. *)
        List.iter
          (fun key ->
            if not (Key.Set.mem key tr.tx_asked) then begin
              let replies =
                match Key.Map.find_opt key tr.tx_replies with Some r -> r | None -> []
              in
              if List.length replies >= qc t then begin
                tr.tx_asked <- Key.Set.add key tr.tx_asked;
                let w =
                  match Key.Map.find_opt key tr.tx_opts with
                  | Some w -> w
                  | None -> synthetic_reject_option t tr.tx_id key tr.tx_keys
                in
                let master = t.master_of key in
                if master = t.id then master_propose t w ~notify:[ t.id ]
                else send t master (Messages.Start_recovery { key; woption = Some w })
              end
            end)
          undecided
  end

and finish_txn_recovery t tr committed =
  tr.tx_done <- true;
  if live t then emit t (Event.Txn_recovery_finished { txid = tr.tx_id; committed });
  List.iter
    (fun key ->
      let update =
        match Key.Map.find_opt key tr.tx_opts with
        | Some w -> w.Woption.update
        | None -> Update.Physical { vread = -1; value = Value.empty }
      in
      fan_out t
        (Messages.Visibility { txid = tr.tx_id; key; update; committed })
        (fun () -> visibility t tr.tx_id key update committed)
        (t.replicas key))
    tr.tx_keys

let start_txn_recovery t (w : Woption.t) =
  if not (Hashtbl.mem t.recoveries w.Woption.txid) then begin
    let tr =
      {
        tx_id = w.Woption.txid;
        tx_keys = w.Woption.write_set;
        tx_opts = Key.Map.singleton w.Woption.key w;
        tx_replies = Key.Map.empty;
        tx_learned = Key.Map.empty;
        tx_asked = Key.Set.empty;
        tx_done = false;
      }
    in
    Hashtbl.replace t.recoveries w.Woption.txid tr;
    if live t then
      emit t (Event.Txn_recovery_started { txid = w.Woption.txid; keys = List.length tr.tx_keys });
    List.iter
      (fun key ->
        fan_out t
          (Messages.Status_query { txid = w.Woption.txid; key })
          (fun () -> status_query t ~src:t.id w.Woption.txid key)
          (t.replicas key))
      tr.tx_keys;
    (* If recovery stalls (failed replicas), forget it so a later scan can
       retry from scratch with fresh messages. *)
    ignore
      (Runtime.set_timer t.runtime ~after:(3.0 *. t.config.Config.txn_timeout) (fun () ->
           match Hashtbl.find_opt t.recoveries w.Woption.txid with
           | Some tr' when tr' == tr && not tr.tx_done ->
             Hashtbl.remove t.recoveries w.Woption.txid
           | Some _ | None -> ()))
  end

let txn_recovery_status t txid key status acceptor =
  match Hashtbl.find_opt t.recoveries txid with
  | None -> ()
  | Some tr ->
    let replies = match Key.Map.find_opt key tr.tx_replies with Some r -> r | None -> [] in
    if not (List.exists (fun (a, _) -> a = acceptor) replies) then begin
      tr.tx_replies <- Key.Map.add key ((acceptor, status) :: replies) tr.tx_replies;
      evaluate_txn_recovery t tr
    end

(* Periodic scan for pending options whose coordinator went silent.  The
   record's master reacts after one timeout; other replicas after three, so
   a single node usually drives each recovery.  Candidates are collected
   first: starting a recovery mutates [t.records].  Recoveries start in
   reverse (key, pending) order.  The scan runs over every record at every
   node, so records with nothing stale cost a visit and no allocation. *)
let scan_dangling t =
  let now = now t and timeout = t.config.Config.txn_timeout in
  let older_than limit (p : Rstate.pending) = now -. p.Rstate.proposed_at > limit in
  let past_timeout p = older_than timeout p in
  let stale_in key (rs : Rstate.t) =
    (* The shortest deadline first: it settles almost every record without
       computing the record's master. *)
    if not (List.exists past_timeout rs.Rstate.pending) then None
    else begin
      let limit = timeout *. if t.master_of key = t.id then 1.0 else 3.0 in
      let is_stale (p : Rstate.pending) =
        older_than limit p && not (Hashtbl.mem t.recoveries p.Rstate.woption.Woption.txid)
      in
      match List.filter is_stale rs.Rstate.pending with
      | [] -> None
      | stale -> Some (List.map (fun (p : Rstate.pending) -> p.Rstate.woption) stale)
    end
  in
  Key.Tbl.sorted_filter_map stale_in t.records
  |> List.concat |> List.rev
  |> List.iter (start_txn_recovery t)

(* ------------------------------------------------------------------ *)
(* Anti-entropy repair (Sync_reply reconciliation)                      *)
(* ------------------------------------------------------------------ *)

(* Flag [key] as diverged from peer [src] at [version], once per pair. *)
let mark_diverged t ~src key version =
  if not (Hashtbl.mem t.diverged (src, key)) then begin
    Hashtbl.replace t.diverged (src, key) ();
    Obs.incr t.obs "antientropy_divergence";
    Obs.add_gauge t.obs "diverged_replicas" 1;
    if live t then emit t (Event.Diverged { peer = src; key; version })
  end

let clear_diverged t ~src key =
  if Hashtbl.mem t.diverged (src, key) then begin
    Hashtbl.remove t.diverged (src, key);
    Obs.add_gauge t.obs "diverged_replicas" (-1)
  end

(* Merge a peer's applied set into ours by replaying every committed
   commutative option we are missing.  Deterministic: the missing entries
   arrive (and are replayed) in txid order, and txid membership in the
   applied set makes each replay idempotent — merging the same Sync_reply
   twice, or two replies in either order, produces the same state.  Only
   deltas are replayed blindly: they commute, so folding a committed delta
   into any state that lacks it is always correct.  A missing {e physical}
   entry at equal version means our committed state is genuinely stale;
   that is version-based catch-up's job, so we pull a full rebase instead.
   Answer with our merged set when the peer is missing entries we hold —
   gated on having learned something new ourselves, so the exchange
   terminates after at most one reply each way. *)
let sync_repair t ~src key (theirs : (Txn.id * Update.t) list) =
  let rs = rstate t key in
  let theirs = Txn.Map.of_list theirs in
  let missing = Rstate.applied_missing ~mine:rs.Rstate.applied ~theirs in
  let merged = ref 0 in
  let stale = ref false in
  Txn.Map.iter
    (fun txid (update : Update.t) ->
      match update with
      | Update.Delta _ ->
        let row = Store.ensure t.store key in
        set_visible t rs txid key true;
        Rstate.remove_pending rs txid;
        Store.apply t.store key update;
        Rstate.mark_applied rs txid update;
        incr merged;
        Obs.incr t.obs "antientropy_repair";
        if live t then
          emit t
            (Event.Repaired
               { txid; key; src; version = row.Store.version; value = row.Store.value })
      | Update.Insert _ | Update.Physical _ | Update.Delete _ | Update.Read_guard _ ->
        stale := true)
    missing;
  if !stale && t.id <> src then send t src (Messages.Catchup_request { key });
  (* Repaired: this pair is no longer diverged from our point of view. *)
  clear_diverged t ~src key;
  if
    !merged > 0
    && not (Txn.Map.is_empty (Rstate.applied_missing ~mine:theirs ~theirs:rs.Rstate.applied))
  then
    send t src
      (Messages.Sync_reply
         {
           key;
           version = (Store.ensure t.store key).Store.version;
           applied = Txn.Map.bindings rs.Rstate.applied;
         })

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let rec handle t ~src payload =
  match payload with
  | Messages.Batch items -> List.iter (handle t ~src) items
  | Messages.Sync_request { entries } ->
    (* Anti-entropy: answer with the committed state of any key where we are
       ahead of the prober, and ask for theirs where we are behind.  At
       equal versions, compare applied-set digests — matching versions with
       different digests mean the replicas applied different commutative
       delta sets (equal-version divergence).  Flag the pair on the
       diverged_replicas gauge and answer with our full applied set in a
       Sync_reply so the prober can replay what it is missing; the mark
       clears when a later probe agrees again or when the prober's
       counter-reply repairs us. *)
    List.iter
      (fun (key, version, digest) ->
        let row = Store.ensure t.store key in
        if row.Store.version > version then
          send t src (Messages.Catchup { key; rebase = rebase_of t key })
        else if row.Store.version < version then
          (* The prober is ahead of us: pull its committed state. *)
          send t src (Messages.Catchup_request { key })
        else if row.Store.version > 0 then begin
          if applied_digest_of t key <> digest then begin
            mark_diverged t ~src key version;
            send t src
              (Messages.Sync_reply
                 { key; version = row.Store.version; applied = applied_of t key })
          end
          else clear_diverged t ~src key
        end)
      entries
  | Messages.Sync_reply { key; version = _; applied } -> sync_repair t ~src key applied
  | Messages.Propose { woption; route = `Fast } -> fast_propose t woption
  | Messages.Propose { woption; route = `Classic } -> master_propose t woption ~notify:[]
  | Messages.Phase1a { key; ballot } ->
    let ok, promised, votes, rb, decided = acceptor_phase1a t key ballot in
    send t src
      (Messages.Phase1b
         {
           key;
           ballot;
           ok;
           promised;
           votes;
           version = rb.Messages.version;
           value = rb.Messages.value;
           exists = rb.Messages.exists;
           included = rb.Messages.included;
           decided;
         })
  | Messages.Phase1b { key; ballot; ok; promised; votes; version; value; exists; included; decided }
    ->
    master_phase1b t ~src key ballot ok promised votes
      { Messages.value; version; exists; included }
      decided
  | Messages.Phase2a { key; ballot; woption; decision; classic_until; rebase } ->
    let ok, b, d = acceptor_phase2a t key ballot woption decision classic_until rebase in
    send t src
      (Messages.Phase2b_master { key; txid = woption.Woption.txid; ballot = b; ok; decision = d })
  | Messages.Phase2b_master { key; txid; ballot; ok; decision = _ } ->
    master_phase2b t ~src key txid ballot ok
  | Messages.Learned { key; txid; decision } -> txn_recovery_learned t txid key decision
  | Messages.Visibility { txid; key; update; committed } -> visibility t txid key update committed
  | Messages.Start_recovery { key; woption } -> (
    match woption with
    | Some w -> master_propose t w ~notify:[ src ]
    | None -> start_recovery t key ~extras:[] ~notify:[ src ])
  | Messages.Status_query { txid; key } -> status_query t ~src txid key
  | Messages.Status_reply { txid; key; status; acceptor } ->
    txn_recovery_status t txid key status acceptor
  | Messages.Catchup_request { key } ->
    let row = Store.ensure t.store key in
    if row.Store.version > 0 then
      send t src (Messages.Catchup { key; rebase = rebase_of t key })
  | Messages.Catchup { key; rebase } -> apply_rebase t key rebase
  | Messages.Scan_request { rid; table; order_by; limit } ->
    let rows = ref [] in
    Store.iter t.store (fun key row ->
        if row.Store.exists && String.equal key.Key.table table then
          rows := (key, row.Store.value, row.Store.version) :: !rows);
    send t src (Messages.Scan_reply { rid; rows = Store.order_rows ?order_by ~limit !rows })
  | Messages.Read_request { rid; key } ->
    let row = Store.ensure t.store key in
    send t src
      (Messages.Read_reply
         { rid; key; value = row.Store.value; version = row.Store.version; exists = row.Store.exists })
  (* Coordinator-bound replies; a storage node never consumes them. *)
  | Messages.Phase2b_fast _ | Messages.Redirect _ | Messages.Read_reply _
  | Messages.Scan_reply _ -> ()
  | _ -> ()

let create ~runtime ~config ~node_id ~schema ~replicas ~master_of ?(ctx = Ctx.default ()) () =
  let obs = ctx.Ctx.obs in
  let t =
    {
      runtime;
      config;
      id = node_id;
      schema;
      replicas;
      master_of;
      store = Store.create schema;
      records = Key.Tbl.create 1024;
      visible = Visible.create 4096;
      probe = { v_txid = ""; v_key = Key.make ~table:"" ~id:"" };
      fast_demarcation = `Quorum (config.Config.replication, Config.fast_quorum config);
      masters = Key.Tbl.create 256;
      recoveries = Hashtbl.create 64;
      rng = Rng.split (Runtime.rng runtime);
      obs;
      diverged = Hashtbl.create 16;
      stream = Ctx.stream ctx runtime ~node:node_id;
      option_accept = Obs.counter obs "option_accept";
      visibility_exec = Obs.counter obs "visibility_exec";
    }
  in
  Runtime.register runtime node_id (fun ~src payload -> handle t ~src payload);
  t

let load t rows =
  List.iter
    (fun (key, value) ->
      let row = Store.ensure t.store key in
      row.Store.value <- value;
      row.Store.version <- 1;
      row.Store.exists <- true)
    rows

let pending_options t =
  Key.Tbl.sorted_filter_map
    (fun _ rs -> match rs.Rstate.pending with [] -> None | ps -> Some (List.length ps))
    t.records
  |> List.fold_left ( + ) 0

(* Anti-entropy sweep: send every node in [targets key] other than us one
   Sync_request with our (key, version, digest) for each key we hold that
   names it.  Targets are probed in node-id order; each entry list is in
   reverse key order, [Store.iter] being sorted. *)
let sync t ~targets =
  let by_target = Hashtbl.create 8 in
  Store.iter t.store (fun key row ->
      List.iter
        (fun dst ->
          if dst <> t.id then begin
            let existing = Option.value (Hashtbl.find_opt by_target dst) ~default:[] in
            let digest = applied_digest_of t key in
            Hashtbl.replace by_target dst ((key, row.Store.version, digest) :: existing)
          end)
        (targets key));
  Table.sorted_iter ~compare:Int.compare
    (fun dst entries -> send t dst (Messages.Sync_request { entries }))
    by_target

(* Probe the master of every key we hold with our version; stale keys come
   back via Catchup.  The "background process" that brings a recovered data
   center up to date (§5.3.4). *)
let sync_with_masters t = sync t ~targets:(fun key -> [ t.master_of key ])

(* Stronger anti-entropy for a node restarting after a crash: probe every
   replica of every key we hold, not just the masters.  A crashed node may
   have missed instances of keys it {e masters} — their state is newer at the
   other replicas, which the master-directed sweep never asks. *)
let sync_with_peers t = sync t ~targets:t.replicas

let start_maintenance t =
  let period = t.config.Config.dangling_scan_every in
  if period > 0.0 then begin
    let rec loop () =
      scan_dangling t;
      ignore (Runtime.set_timer t.runtime ~after:period loop)
    in
    ignore (Runtime.set_timer t.runtime ~after:period loop)
  end
