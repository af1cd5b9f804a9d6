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
  mutable r_votes : Quorum.tally;  (* the acks that arrived at [r_ballot] *)
  mutable r_notify : int list;
}

(* An option waiting for the master's earlier rounds to finish. *)
type queued = { q_opt : Woption.t; mutable q_notify : int list }

(* Collision recovery / mastership acquisition in progress for one record. *)
type recovery = {
  mutable rc_ballot : Ballot.t;
  mutable rc_resp : (int * Messages.promise) list;  (* (acceptor, its Phase 1b promise) *)
  mutable rc_extras : Woption.t list;
  mutable rc_notify : int list;
}

(* Master-role state for one record. *)
type mstate = {
  m_key : Key.t;
  mutable m_led : Ballot.t option;
  mutable m_highest : int;
  mutable m_rounds : round list;
  mutable m_queue : queued list;
  mutable m_recovery : recovery option;
}

(* One write-set key of a dangling-transaction recovery.  Each replica's
   first status reply folds into [heard] once: a pending vote as a vote,
   any other status as a reply that casts none.  The first option reported
   is kept. *)
type tslot = {
  key : Key.t;
  mutable opt : Woption.t option;  (* the key's option, once any replica reported it *)
  mutable heard : Quorum.tally;
  mutable learned : bool option;  (* the master's decision, [Some true] if accepted *)
  mutable asked : bool;  (* escalated to the key's master *)
}

(* Dangling-transaction recovery in progress at this node: one slot per
   write-set key, in write-set order. *)
type txrec = {
  tx_id : Txn.id;
  tx_keys : Key.t list;  (* the write-set *)
  tx_slots : tslot array;
  mutable tx_done : bool;
}

type t = {
  runtime : Runtime.t;
  config : Config.t;
  id : int;
  replicas : Key.t -> int list;
  master_of : Key.t -> int;
  store : Store.t;
  acceptor : Acceptor.node;  (* every record's acceptor state *)
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
  now : Mdcc_sim.Engine.stamp;
      (* the clock, filled before an acceptor step or a dangling scan;
         flat, so neither boxes it *)
  stale_walk : Key.t -> Acceptor.t -> unit;
      (* raises [Key.Tbl.Found] on a record with an option past the
         timeout at [now]; built once in [create] *)
  outbox : Outbox.t;  (* the sends of a Batch's items fold here *)
}

let node_id t = t.id

let store t = t.store

let record t key = Acceptor.record t.acceptor key

let mstate t key =
  match Key.Tbl.find t.masters key with
  | ms -> ms
  | exception Not_found ->
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

let send t dst payload = Outbox.send t.outbox dst payload

(* Send [payload] to every replica in the list, in order, except that this
   node runs [local] in its own place instead of messaging itself. *)
let rec fan_out t payload local = function
  | [] -> ()
  | replica :: rest ->
    if replica = t.id then local () else send t replica payload;
    fan_out t payload local rest

(* Ask [key]'s master for its committed state, unless this node is it. *)
let catch_up t key =
  let master = t.master_of key in
  if master <> t.id then send t master (Messages.Catchup_request { key })

(* An event is built only when a consumer is live: [if live t then emit t ...]. *)
let live t = Ctx.live t.stream

let emit t ev = Ctx.emit t.stream ev

let reject_counter = function
  | Acceptor.Version_validation -> "option_reject_version"
  | Acceptor.Outstanding_option -> "option_reject_outstanding"
  | Acceptor.Demarcation -> "option_reject_demarcation"

let count_verdict t reason =
  match reason with
  | None -> Obs.bump t.option_accept
  | Some r -> Obs.incr t.obs (reject_counter r)

let install_rebase t key rb =
  if Acceptor.rebase t.acceptor key rb then Obs.incr t.obs "antientropy_repair"

(* ------------------------------------------------------------------ *)
(* Acceptor role: step the record's acceptor, then send, count and emit *)
(* ------------------------------------------------------------------ *)

let fast_vote t (w : Woption.t) reason =
  count_verdict t reason;
  if live t then
    emit t (Event.Voted { txid = w.Woption.txid; key = w.Woption.key; vote = Event.Fast reason });
  send t w.Woption.coordinator
    (Messages.Phase2b_fast { woption = w; decision = Acceptor.decision_of reason })

(* Answer a fast (master-bypassing) proposal.  An option whose transaction
   is already decided here is answered with the transaction's outcome,
   never as a vote: an aborted transaction's option may well have been
   accepted, and a Rejected would contradict the value its quorum learned.
   The coordinator takes the Visibility as the transaction's fate. *)
let fast_propose t (w : Woption.t) =
  let key = w.Woption.key and coordinator = w.Woption.coordinator in
  let rs = record t key in
  Runtime.now_into t.runtime t.now;
  match Acceptor.fast_propose t.acceptor rs ~now:t.now w with
  | Acceptor.Outcome committed ->
    send t coordinator (Messages.Visibility { woption = w; committed })
  | Acceptor.Standing decision ->
    send t coordinator (Messages.Phase2b_fast { woption = w; decision })
  | Acceptor.Redirect ->
    let master = t.master_of key and classic_until = Acceptor.classic_until rs in
    send t coordinator (Messages.Redirect { key; txid = w.Woption.txid; master; classic_until })
  | Acceptor.Vote reason -> fast_vote t w reason
  | Acceptor.Behind ->
    catch_up t key;
    fast_vote t w (Some Acceptor.Version_validation)

let applied t txid key wrote =
  Obs.bump t.visibility_exec;
  if live t then begin
    let row = Store.ensure t.store key in
    emit t
      (Event.Applied { txid; key; version = row.Store.version; value = row.Store.value; wrote })
  end

(* Execute or void an option (Algorithm 3, ApplyVisibility). *)
let visibility t txid key update committed =
  match Acceptor.visibility t.acceptor txid key update committed with
  | Acceptor.Ignored -> ()
  | Acceptor.Unknown ->
    if live t then emit t (Event.Unknown_update { txid; key });
    catch_up t key
  | Acceptor.Wrote -> applied t txid key true
  | Acceptor.Skipped -> applied t txid key false
  | Acceptor.Voided ->
    Obs.incr t.obs "visibility_void";
    if live t then emit t (Event.Voided { txid; key })

let status_query t ~src txid key =
  let status = Acceptor.status t.acceptor txid key in
  send t src (Messages.Status_reply { txid; key; status; acceptor = t.id })

(* ------------------------------------------------------------------ *)
(* Master role                                                         *)
(* ------------------------------------------------------------------ *)

let qc t = Config.classic_quorum t.config

(* [a] with each member of [b] it lacks consed onto its front, one at a
   time in [b]'s order. *)
let union a b = List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) a b

let new_round w dec ballot notify =
  { r_opt = w; r_dec = dec; r_ballot = ballot; r_votes = Quorum.Tally.empty; r_notify = notify }

(* The round running for [txid], first in the list; raises [Not_found].
   This and the scanners below are top-level so that finding, joining or
   dropping a round allocates no closure and no option. *)
let rec find_round txid = function
  | [] -> raise_notrace Not_found
  | r :: rest -> if String.equal r.r_opt.Woption.txid txid then r else find_round txid rest

let rec find_queued txid = function
  | [] -> raise_notrace Not_found
  | q :: rest -> if String.equal q.q_opt.Woption.txid txid then q else find_queued txid rest

(* The list without [r]: only the cells before it are copied. *)
let rec without r = function
  | [] -> []
  | r' :: rest -> if r' == r then rest else r' :: without r rest

(* Whether [dst] occurs in [all] before its cell [here]. *)
let rec occurs_before dst all here =
  all != here && match all with [] -> false | x :: rest -> x = dst || occurs_before dst rest here

(* The slot of [key] in a dangling-transaction recovery, if [key] is in
   its write-set. *)
let slot_of tr key = Array.find_opt (fun s -> Key.equal s.key key) tr.tx_slots

(* The update of an option no replica has reported.  A physical update
   with an impossible read version: as a proposal it is deterministically
   rejected, and a committed Visibility carrying it is refused. *)
let unknown_update = Update.Physical { vread = -1; value = Value.empty }

(* The option of [key] when no replica has ever reported it: proposed, it
   seals the instance and makes the abort durable; in a Visibility, it
   voids the key or, committed, is refused. *)
let unknown_option t tr key =
  { Woption.txid = tr.tx_id; key; update = unknown_update; write_set = tr.tx_keys;
    coordinator = t.id }

let rec master_phase2b t ~src key txid ballot ok =
  let ms = mstate t key in
  match find_round txid ms.m_rounds with
  | exception Not_found -> ()
  | r ->
    if not (Ballot.equal r.r_ballot ballot) then ()
    else if ok then begin
      let pos = Quorum.position src (t.replicas key) in
      let votes = Quorum.Tally.vote r.r_votes ~pos ~ok:true in
      if votes <> r.r_votes then begin
        r.r_votes <- votes;
        if Quorum.Tally.acks votes >= qc t then begin
          ms.m_rounds <- without r ms.m_rounds;
          announce t key r.r_opt r.r_notify r.r_dec;
          Obs.incr t.obs "classic_learned";
          if live t then emit t (Event.Classic_learned { txid; key; decision = r.r_dec });
          process_queue t key
        end
      end
    end
    else begin
      (* Someone holds a higher ballot: step down and re-decide the option
         through full recovery. *)
      ms.m_highest <- Stdlib.max ms.m_highest ballot.Ballot.number;
      ms.m_led <- None;
      ms.m_rounds <- without r ms.m_rounds;
      start_recovery t key ~extras:[ r.r_opt ] ~notify:r.r_notify
    end

(* Tell everyone in [notify] and then the option's coordinator the
   decision, each once and in the order of [union [coordinator] notify]:
   [notify]'s first occurrences last to first, the coordinator last.  This
   node learns it directly; the others share one message. *)
and announce t key (w : Woption.t) notify decision =
  let txid = w.Woption.txid and coordinator = w.Woption.coordinator in
  let payload = Messages.Learned { key; txid; decision } in
  announce_notify t key txid decision payload coordinator notify notify;
  learn_at t key txid decision payload coordinator

(* [announce] for an option whose transaction is already decided: the
   coordinator hears the transaction's outcome as a Visibility; a node
   recovering the transaction learns it as the option's decision. *)
and announce_outcome t key (w : Woption.t) notify committed =
  let txid = w.Woption.txid and coordinator = w.Woption.coordinator in
  let decision = Woption.of_ok committed in
  let payload = Messages.Learned { key; txid; decision } in
  announce_notify t key txid decision payload coordinator notify notify;
  if coordinator = t.id then txn_recovery_learned t txid key decision
  else send t coordinator (Messages.Visibility { woption = w; committed })

and announce_notify t key txid decision payload coordinator all = function
  | [] -> ()
  | dst :: rest as here ->
    announce_notify t key txid decision payload coordinator all rest;
    if dst <> coordinator && not (occurs_before dst all here) then
      learn_at t key txid decision payload dst

and learn_at t key txid decision payload dst =
  if dst = t.id then txn_recovery_learned t txid key decision else send t dst payload

(* Phase2a to every replica of [key] in order; this node votes in its own
   place and acks its own vote. *)
and broadcast_phase2a t key ballot (w : Woption.t) decision ~classic_until ~rebase =
  phase2a_to t key ballot w decision classic_until rebase
    (Messages.Phase2a { key; ballot; woption = w; decision; classic_until; rebase })
    (t.replicas key)

and phase2a_to t key ballot (w : Woption.t) decision classic_until rebase payload = function
  | [] -> ()
  | replica :: rest ->
    if replica = t.id then
      acceptor_phase2a t ~master:t.id key ballot w decision classic_until rebase
    else send t replica payload;
    phase2a_to t key ballot w decision classic_until rebase payload rest

(* Step the acceptor on a Phase2a from [master] and answer with its
   Phase2b: a message, or a direct call when this node is the master. *)
and acceptor_phase2a t ~master key ballot (w : Woption.t) decision classic_until rebase =
  let rs = record t key in
  Runtime.now_into t.runtime t.now;
  let verdict =
    Acceptor.phase2a t.acceptor rs ~now:t.now ballot w decision ~classic_until ~rebase
  in
  (match verdict with
  | Acceptor.Voted_rebased | Acceptor.Known_rebased -> Obs.incr t.obs "antientropy_repair"
  | Acceptor.Refused | Acceptor.Voted | Acceptor.Known -> ());
  if (verdict = Acceptor.Voted || verdict = Acceptor.Voted_rebased) && live t then
    emit t (Event.Voted { txid = w.Woption.txid; key; vote = Event.Classic decision });
  let txid = w.Woption.txid and promised = Acceptor.promised rs in
  let ok = verdict <> Acceptor.Refused in
  if master = t.id then master_phase2b t ~src:t.id key txid promised ok
  else send t master (Messages.Phase2b_master { key; txid; ballot = promised; ok })

(* Stable-master classic round: validate with escrow against our own state
   (our own pendings mirror every in-flight classic option) and replicate the
   decision. *)
and start_round t key (w : Woption.t) ~notify =
  let ms = mstate t key in
  match ms.m_led with
  | None -> start_recovery t key ~extras:[ w ] ~notify
  | Some ballot ->
    let rs = record t key in
    let reason = Acceptor.escrow t.acceptor rs w.Woption.update in
    let decision = Acceptor.decision_of reason in
    count_verdict t reason;
    ms.m_rounds <- new_round w decision ballot notify :: ms.m_rounds;
    broadcast_phase2a t key ballot w decision ~classic_until:(Acceptor.classic_until rs)
      ~rebase:None

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
  | q :: rest ->
    if ms.m_recovery = None && ms.m_led <> None && can_run_now t key q.q_opt then begin
      ms.m_queue <- rest;
      start_round t key q.q_opt ~notify:q.q_notify;
      process_queue t key
    end

and master_propose t (w : Woption.t) ~notify =
  let key = w.Woption.key in
  let txid = w.Woption.txid in
  let ms = mstate t key in
  let rs = record t key in
  match Acceptor.outcome t.acceptor rs txid with
  | Some committed -> announce_outcome t key w notify committed
  | None -> (
    match find_round txid ms.m_rounds with
    | r -> r.r_notify <- union r.r_notify notify
    | exception Not_found -> (
      match (ms.m_recovery, Acceptor.mem_pending rs txid) with
      | Some _, _ | None, true ->
        (* Join the recovery in progress.  Or a local vote for the option
           exists — fast, or classic from a round we no longer track.
           Either way a vote is not a decision (the round may have died
           short of a quorum), and re-running a fresh round against our own
           state would have the option conflicting with its own pending
           vote.  Recovery reads a quorum and classifies the vote
           correctly. *)
        start_recovery t key ~extras:[ w ] ~notify
      | None, false ->
        let row = Store.ensure t.store key in
        let era_classic = Acceptor.in_classic_era rs ~version:row.Store.version in
        if ms.m_led <> None && era_classic then begin
          if ms.m_queue = [] && can_run_now t key w then start_round t key w ~notify
          else
            (* A re-proposal of a queued option joins its entry, as one of
               a running round joins the round: queued twice, it would run
               two rounds at one ballot. *)
            match find_queued txid ms.m_queue with
            | q -> q.q_notify <- union q.q_notify notify
            | exception Not_found ->
              ms.m_queue <- ms.m_queue @ [ { q_opt = w; q_notify = notify } ]
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
      @ List.map (fun q -> q.q_opt) ms.m_queue
    in
    let notify = union notify (List.concat_map (fun r -> r.r_notify) ms.m_rounds) in
    let notify = union notify (List.concat_map (fun q -> q.q_notify) ms.m_queue) in
    ms.m_rounds <- [];
    ms.m_queue <- [];
    ms.m_highest <- ms.m_highest + 1;
    let rc =
      {
        rc_ballot = Ballot.classic ~number:ms.m_highest ~proposer:t.id;
        rc_resp = [];
        rc_extras = extras;
        rc_notify = notify;
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
    (fun () -> acceptor_phase1a t ~master:t.id key ballot)
    (t.replicas key)

(* Step the acceptor on a Phase1a from [master] and answer with its
   Phase1b: a message, or a direct call when this node is the master. *)
and acceptor_phase1a t ~master key ballot =
  let rs = record t key in
  let ok = Acceptor.phase1a t.acceptor rs ballot in
  let promised = Acceptor.promised rs and promise = Acceptor.promise t.acceptor rs in
  if master = t.id then master_phase1b t ~src:t.id key ballot ~ok ~promised promise
  else send t master (Messages.Phase1b { key; ballot; ok; promised; promise })

(* Re-drive Phase 1 if the recovery stalls (lost messages, failed DC). *)
and watch_recovery t key rc =
  let timeout = t.config.Config.learn_timeout +. Rng.float t.rng 200.0 in
  ignore
    (Runtime.set_timer t.runtime ~after:timeout (fun () ->
         let ms = mstate t key in
         match ms.m_recovery with
         | Some rc' when rc' == rc ->
           ms.m_highest <- ms.m_highest + 1;
           rc.rc_ballot <- Ballot.classic ~number:ms.m_highest ~proposer:t.id;
           rc.rc_resp <- [];
           broadcast_phase1a t key rc;
           watch_recovery t key rc
         | Some _ | None -> ()))

and master_phase1b t ~src key ballot ~ok ~promised promise =
  let ms = mstate t key in
  match ms.m_recovery with
  | Some rc when Ballot.equal ballot rc.rc_ballot ->
    if ok then begin
      if not (List.mem_assoc src rc.rc_resp) then rc.rc_resp <- (src, promise) :: rc.rc_resp;
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
             | Some rc' when rc' == rc -> broadcast_phase1a t key rc
             | Some _ | None -> ()))
    end
  | Some _ | None -> ()

and resolve_recovery t key rc =
  let ms = mstate t key in
  (* Re-base: the freshest committed state any responder reported. *)
  let rebase =
    List.fold_left
      (fun best (_, (p : Messages.promise)) ->
        if p.Messages.rebase.Messages.version > best.Messages.version then p.Messages.rebase
        else best)
      (Acceptor.rebase_of t.acceptor key) rc.rc_resp
  in
  install_rebase t key rebase;
  (* Candidate options: every pending vote reported, plus escalated extras.
     Of an option's classic votes only the highest-ballot one matters, the
     last reported among equals; its fast votes count by their reporter's
     position in the key's replica group. *)
  let candidates :
      (string, Woption.t * (Woption.decision * Ballot.t) option * Quorum.tally) Hashtbl.t =
    Hashtbl.create 16
  in
  let replicas = t.replicas key in
  List.iter
    (fun (src, (p : Messages.promise)) ->
      let pos = Quorum.position src replicas in
      List.iter
        (fun { Messages.woption; decision; ballot } ->
          let txid = woption.Woption.txid in
          let w, classic, fast =
            match Hashtbl.find_opt candidates txid with
            | Some c -> c
            | None -> (woption, None, Quorum.Tally.empty)
          in
          Hashtbl.replace candidates txid
            (match classic with
            | _ when Ballot.is_fast ballot ->
              (w, classic, Quorum.Tally.vote fast ~pos ~ok:(decision = Woption.Accepted))
            | Some (_, b) when Ballot.compare ballot b < 0 -> (w, classic, fast)
            | Some _ | None -> (w, Some (decision, ballot), fast)))
        p.Messages.votes)
    rc.rc_resp;
  List.iter
    (fun (w : Woption.t) ->
      if not (Hashtbl.mem candidates w.Woption.txid) then
        Hashtbl.replace candidates w.Woption.txid (w, None, Quorum.Tally.empty))
    rc.rc_extras;
  (* Visibility outcomes known anywhere in the quorum (or locally) are final
     — a concurrent recovery already executed or voided these options, and
     this ballot must confirm, not contradict, them. *)
  let known_viz : (Txn.id, bool) Hashtbl.t = Hashtbl.create 16 in
  let learn applied decided =
    Txn.Map.iter (fun txid _ -> Hashtbl.replace known_viz txid true) applied;
    List.iter (fun (txid, c) -> Hashtbl.replace known_viz txid c) decided
  in
  learn (Acceptor.applied t.acceptor key) (Acceptor.decided (record t key));
  List.iter
    (fun (_, (p : Messages.promise)) ->
      learn p.Messages.rebase.Messages.included p.Messages.decided)
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
    (fun txid (w, classic, fast) ->
      match Hashtbl.find_opt known_viz txid with
      | Some committed -> already_visible := (w, committed) :: !already_visible
      | None -> (
        match classic with
        | Some (d, b) -> classic_voted := (b, (w, Some d)) :: !classic_voted
        | None -> (
          match Quorum.Tally.decided fast ~quorum:threshold with
          | Some ok -> fast_forced := (w, Some (Woption.of_ok ok)) :: !fast_forced
          | None -> free := (w, None) :: !free)))
    candidates;
  let base_val =
    {
      Acceptor.value = rebase.Messages.value;
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
            Acceptor.evaluate ~bounds:(Acceptor.bounds t.acceptor key) ~demarcation:`Escrow base_val
              ~pending:accepted w.Woption.update
        in
        let accepted =
          if d = Woption.Accepted then Acceptor.vote ~next:accepted w d rc.rc_ballot else accepted
        in
        ((w, d) :: outcomes, accepted))
      ([], Acceptor.none)
      (classic_forced @ fast_forced @ free)
  in
  let outcomes = List.rev outcomes in
  (* Install the classic window and become the stable master. *)
  let classic_until =
    match t.config.Config.mode with
    | Config.Multi -> max_int
    | Config.Full -> rebase.Messages.version + t.config.Config.gamma
  in
  Acceptor.recovered_window (record t key) ~classic_until;
  ms.m_recovery <- None;
  ms.m_led <- Some rc.rc_ballot;
  (* Options already executed: just tell everyone who asked. *)
  List.iter (fun (w, c) -> announce_outcome t key w rc.rc_notify c) !already_visible;
  (* Re-propose every undecided option at the classic ballot. *)
  List.iter
    (fun (w, d) -> ms.m_rounds <- new_round w d rc.rc_ballot rc.rc_notify :: ms.m_rounds)
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
  | Some tr when not tr.tx_done -> (
    match slot_of tr key with
    | Some s when Option.is_none s.learned ->
      s.learned <- Some (decision = Woption.Accepted);
      evaluate_txn_recovery t tr
    | Some _ | None -> ())
  | Some _ | None -> ()

(* The learned-all rule: once every key is decided, by its master or else
   by a fast quorum of reported votes, the transaction committed iff every
   key accepted.  Until then, escalate each undecided key to its master,
   once, after a classic quorum of replies for it. *)
and evaluate_txn_recovery t tr =
  let fq = Config.fast_quorum t.config in
  let decision s = match s.learned with None -> Quorum.Tally.decided s.heard ~quorum:fq | d -> d in
  if Array.for_all (fun s -> Option.is_some (decision s)) tr.tx_slots then
    finish_txn_recovery t tr (Array.for_all (fun s -> decision s = Some true) tr.tx_slots)
  else
    Array.iter
      (fun s ->
        if Option.is_none (decision s) && (not s.asked)
           && Quorum.Tally.replies s.heard >= qc t
        then begin
          s.asked <- true;
          let w = match s.opt with Some w -> w | None -> unknown_option t tr s.key in
          let master = t.master_of s.key in
          if master = t.id then master_propose t w ~notify:[ t.id ]
          else send t master (Messages.Start_recovery { key = s.key; woption = w })
        end)
      tr.tx_slots

and finish_txn_recovery t tr committed =
  tr.tx_done <- true;
  if live t then emit t (Event.Txn_recovery_finished { txid = tr.tx_id; committed });
  Array.iter
    (fun s ->
      let w = match s.opt with Some w -> w | None -> unknown_option t tr s.key in
      fan_out t
        (Messages.Visibility { woption = w; committed })
        (fun () -> visibility t tr.tx_id s.key w.Woption.update committed)
        (t.replicas s.key))
    tr.tx_slots

let start_txn_recovery t (w : Woption.t) =
  if not (Hashtbl.mem t.recoveries w.Woption.txid) then begin
    let slot key =
      { key; opt = (if Key.equal key w.Woption.key then Some w else None);
        heard = Quorum.Tally.empty; learned = None; asked = false }
    in
    let tr =
      {
        tx_id = w.Woption.txid;
        tx_keys = w.Woption.write_set;
        tx_slots = Array.of_list (List.map slot w.Woption.write_set);
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

(* Fold a replica's status reply into its key's slot, once per replica.
   A decided reply settles the whole transaction at once. *)
let txn_recovery_status t txid key status acceptor =
  match Hashtbl.find_opt t.recoveries txid with
  | Some tr when not tr.tx_done -> (
    match slot_of tr key with
    | Some s ->
      let pos = Quorum.position acceptor (t.replicas key) in
      let heard =
        match status with
        | Messages.Status_pending v ->
          Quorum.Tally.vote s.heard ~pos ~ok:(v.Messages.decision = Woption.Accepted)
        | Messages.Status_decided _ | Messages.Status_unknown -> Quorum.Tally.reply s.heard ~pos
      in
      if heard <> s.heard then begin
        s.heard <- heard;
        match status with
        | Messages.Status_decided committed -> finish_txn_recovery t tr committed
        | Messages.Status_pending v ->
          if Option.is_none s.opt then s.opt <- Some v.Messages.woption;
          evaluate_txn_recovery t tr
        | Messages.Status_unknown -> evaluate_txn_recovery t tr
      end
    | None -> ())
  | Some _ | None -> ()

(* Periodic scan for pending options whose coordinator went silent.  The
   record's master reacts after one timeout; other replicas after three, so
   a single node usually drives each recovery.  A node with no pending
   option at all, as most nodes are at most ticks, returns at once without
   reading the clock.  Otherwise the scan visits every record and almost
   always finds nothing, so it first asks [stale_walk] whether any option
   is past the timeout at all: a walk that allocates nothing.  Only then
   are candidates collected, all before the first recovery starts, since
   starting one mutates the acceptor's records.  Recoveries start in reverse (key,
   pending) order. *)
let scan_dangling t =
  if Acceptor.pending_records t.acceptor > 0 then begin
    Runtime.now_into t.runtime t.now;
    if Acceptor.any_record t.stale_walk t.acceptor then begin
      let now = t.now and timeout = t.config.Config.txn_timeout in
      let recovering (w : Woption.t) = Hashtbl.mem t.recoveries w.Woption.txid in
      let stale_in key (rs : Acceptor.t) =
        (* The shortest deadline first: it settles almost every record
           without computing the record's master. *)
        if not (Acceptor.any_older rs ~now timeout) then None
        else begin
          let limit = timeout *. if t.master_of key = t.id then 1.0 else 3.0 in
          match List.filter (fun w -> not (recovering w)) (Acceptor.older_than rs ~now limit) with
          | [] -> None
          | stale -> Some stale
        end
      in
      Acceptor.filter_records stale_in t.acceptor
      |> List.concat |> List.rev
      |> List.iter (start_txn_recovery t)
    end
  end

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
let sync_repair t ~src key theirs =
  let rs = record t key in
  let missing = Acceptor.applied_missing ~mine:(Acceptor.applied t.acceptor key) ~theirs in
  let merged = ref 0 in
  let stale = ref false in
  Txn.Map.iter
    (fun txid (update : Update.t) ->
      match update with
      | Update.Delta _ ->
        let row = Store.ensure t.store key in
        Acceptor.repair t.acceptor rs txid update;
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
  if !merged > 0 then begin
    let applied = Acceptor.applied t.acceptor key in
    if not (Txn.Map.is_empty (Acceptor.applied_missing ~mine:theirs ~theirs:applied)) then
      send t src
        (Messages.Sync_reply
           { key; version = (Store.ensure t.store key).Store.version; applied })
  end

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let rec handle t ~src payload =
  match payload with
  | Messages.Batch items ->
    (* One step: what the items send goes out folded per destination, so
       the votes on a batch of proposals return as one message. *)
    Outbox.enter t.outbox;
    handle_each t ~src items;
    Outbox.leave t.outbox
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
          send t src (Messages.Catchup { key; rebase = Acceptor.rebase_of t.acceptor key })
        else if row.Store.version < version then
          (* The prober is ahead of us: pull its committed state. *)
          send t src (Messages.Catchup_request { key })
        else if row.Store.version > 0 then begin
          let applied = Acceptor.applied t.acceptor key in
          if Messages.applied_digest applied <> digest then begin
            mark_diverged t ~src key version;
            send t src (Messages.Sync_reply { key; version = row.Store.version; applied })
          end
          else clear_diverged t ~src key
        end)
      entries
  | Messages.Sync_reply { key; version = _; applied } -> sync_repair t ~src key applied
  | Messages.Propose { woption; route = `Fast } -> fast_propose t woption
  | Messages.Propose { woption; route = `Classic } -> master_propose t woption ~notify:[]
  | Messages.Phase1a { key; ballot } -> acceptor_phase1a t ~master:src key ballot
  | Messages.Phase1b { key; ballot; ok; promised; promise } ->
    master_phase1b t ~src key ballot ~ok ~promised promise
  | Messages.Phase2a { key; ballot; woption; decision; classic_until; rebase } ->
    acceptor_phase2a t ~master:src key ballot woption decision classic_until rebase
  | Messages.Phase2b_master { key; txid; ballot; ok } ->
    master_phase2b t ~src key txid ballot ok
  | Messages.Learned { key; txid; decision } -> txn_recovery_learned t txid key decision
  | Messages.Visibility { woption = w; committed } ->
    visibility t w.Woption.txid w.Woption.key w.Woption.update committed
  | Messages.Start_recovery { key = _; woption } -> master_propose t woption ~notify:[ src ]
  | Messages.Status_query { txid; key } -> status_query t ~src txid key
  | Messages.Status_reply { txid; key; status; acceptor } ->
    txn_recovery_status t txid key status acceptor
  | Messages.Catchup_request { key } ->
    let row = Store.ensure t.store key in
    if row.Store.version > 0 then
      send t src (Messages.Catchup { key; rebase = Acceptor.rebase_of t.acceptor key })
  | Messages.Catchup { key; rebase } -> install_rebase t key rebase
  | Messages.Read_request { rid; key } ->
    let row = Store.ensure t.store key in
    send t src
      (Messages.Read_reply
         { rid; key; value = row.Store.value; version = row.Store.version; exists = row.Store.exists })
  (* Coordinator-bound replies, and the scan pair nothing sends. *)
  | Messages.Phase2b_fast _ | Messages.Redirect _ | Messages.Read_reply _
  | Messages.Scan_request _ | Messages.Scan_reply _ -> ()
  | _ -> ()

and handle_each t ~src = function
  | [] -> ()
  | item :: rest ->
    handle t ~src item;
    handle_each t ~src rest

let create ~runtime ~config ~node_id ~schema ~replicas ~master_of ?(ctx = Ctx.make ()) () =
  let obs = ctx.Ctx.obs and now = { Mdcc_sim.Engine.time = 0.0 } in
  let store = Store.create schema in
  let t =
    {
      runtime;
      config;
      id = node_id;
      replicas;
      master_of;
      store;
      acceptor = Acceptor.create_node ~config store;
      masters = Key.Tbl.create 16;
      recoveries = Hashtbl.create 16;
      rng = Rng.split (Runtime.rng runtime);
      obs;
      diverged = Hashtbl.create 16;
      stream = Ctx.stream ctx runtime ~node:node_id;
      option_accept = Obs.counter obs "option_accept";
      visibility_exec = Obs.counter obs "visibility_exec";
      now;
      stale_walk =
        (fun _ rs ->
          if Acceptor.any_older rs ~now config.Config.txn_timeout then
            raise_notrace Key.Tbl.Found);
      outbox = Outbox.create runtime ~src:node_id;
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

let pending_options t = Acceptor.pending_options t.acceptor

(* Anti-entropy sweep: send every node in [targets key] other than us one
   Sync_request with our (key, version, digest) for each key we hold that
   names it.  A key's digest is computed once, and only if it has such a
   target.  Targets are probed in node-id order; each entry list is in
   reverse key order, [Store.iter] being sorted. *)
let rec names_other id = function [] -> false | dst :: rest -> dst <> id || names_other id rest

let sync t ~targets =
  let by_target = Hashtbl.create 8 in
  Store.iter t.store (fun key row ->
      let dsts = targets key in
      if names_other t.id dsts then begin
        let digest = Messages.applied_digest (Acceptor.applied t.acceptor key) in
        let entry = (key, row.Store.version, digest) in
        List.iter
          (fun dst ->
            if dst <> t.id then begin
              let existing = Option.value (Hashtbl.find_opt by_target dst) ~default:[] in
              Hashtbl.replace by_target dst (entry :: existing)
            end)
          dsts
      end);
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
  if period > 0.0 then Runtime.every t.runtime ~period (fun () -> scan_dangling t)
