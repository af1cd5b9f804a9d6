open Mdcc_storage
open Mdcc_paxos
module Rng = Mdcc_util.Rng
module Table = Mdcc_util.Table
module Obs = Mdcc_obs.Obs

type t = {
  runtime : Runtime.t;
  config : Config.t;
  id : int;
  replicas : Key.t -> int list;
  master_of : Key.t -> int;
  store : Store.t;
  acceptor : Acceptor.node;  (* every record's acceptor state *)
  masters : Leader.t Key.Tbl.t;  (* each record's master state, made by its first master step *)
  recoveries : (Txn.id, Txn_decision.t) Hashtbl.t;  (* dangling transactions being recovered *)
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
  outbox : Outbox.t;
      (* every delivery, Phase 1 timer and dangling scan is one step: its
         sends leave folded per destination when it ends *)
  epoch : Epoch.t;  (* the classic rounds' Phase 2a fan-out *)
}

let node_id t = t.id

let store t = t.store

let record t key = Acceptor.record t.acceptor key

let leader t key =
  match Key.Tbl.find t.masters key with
  | l -> l
  | exception Not_found ->
    let l = Leader.create t.config ~self:t.id ~master_of:t.master_of key in
    Key.Tbl.add t.masters key l;
    l

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

let count_repair t rebased = if rebased then Obs.incr t.obs "antientropy_repair"

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
(* Master role: step the record's leader, then send, count and emit     *)
(* ------------------------------------------------------------------ *)

let qc t = Config.classic_quorum t.config

(* Whether [dst] occurs in [all] before its cell [here]. *)
let rec occurs_before dst all here =
  all != here && match all with [] -> false | x :: rest -> x = dst || occurs_before dst rest here

(* Act on a leader step's verdict, reading the rest back from [l]. *)
let rec lead t key l = function
  | Leader.Pending -> ()
  | Leader.Outcome _ -> () (* only a propose answers it: [master_propose] announces it *)
  | Leader.Round reason ->
    count_verdict t reason;
    broadcast_phase2a t key (Leader.ballot l) (Leader.option l) (Acceptor.decision_of reason)
      ~classic_until:(Acceptor.classic_until (record t key)) ~rebase:None
  | Leader.Learned ->
    let decision = Leader.decision l and w = Leader.option l in
    announce t key w (Leader.notify l) decision;
    Obs.incr t.obs "classic_learned";
    if live t then emit t (Event.Classic_learned { txid = w.Woption.txid; key; decision });
    dequeue t key l
  | Leader.Phase1 ->
    Obs.incr t.obs "recovery_start";
    if live t then
      emit t (Event.Master_recovery_started { key; ballot = (Leader.ballot l).Ballot.number });
    redrive t key l
  | Leader.Redrive -> redrive t key l
  | Leader.Phase1a -> broadcast_phase1a t key l
  | Leader.Nacked ->
    (* Back off, then retry above the promise. *)
    let a = Leader.attempt l and ballot = Leader.ballot l in
    let backoff = 20.0 +. Rng.float t.rng 150.0 in
    ignore
      (Runtime.set_timer t.runtime ~after:backoff (fun () ->
           lead_step t key l (Leader.backoff l a ballot)))
  | Leader.Resolved v ->
    (* Options already executed: just tell everyone who asked.  Then the
       Phase2a's of every undecided option, at the new classic ballot. *)
    let notify = Leader.waiting (Leader.attempt l) and ballot = Leader.ballot l in
    count_repair t v.Acceptor.rebased;
    List.iter (fun (w, c) -> announce_outcome t key w notify c) v.Acceptor.known;
    List.iter
      (fun ((w : Woption.t), d) ->
        broadcast_phase2a t key ballot w d ~classic_until:v.Acceptor.window
          ~rebase:(Some v.Acceptor.rebase))
      v.Acceptor.outcomes;
    if live t then
      emit t
        (Event.Master_recovery_resolved
           { key; options = List.length v.Acceptor.outcomes; forced = v.Acceptor.forced;
             free = v.Acceptor.free })
  | Leader.Handover { leader; released } ->
    (* One step: the new leader gets every released option in one
       message, and answers this node, which asked. *)
    List.iter (fun woption -> send t leader (Messages.Start_recovery { key; woption })) released

(* A timer's verdict, acted on as a step of its own. *)
and lead_step t key l verdict =
  Outbox.enter t.outbox;
  lead t key l verdict;
  Outbox.leave t.outbox

(* After a learned round: start every queued option that can run now. *)
and dequeue t key l =
  match Leader.dequeue l t.acceptor (record t key) with
  | Leader.Pending -> ()
  | verdict ->
    lead t key l verdict;
    dequeue t key l

and master_propose t (w : Woption.t) ~notify =
  let key = w.Woption.key in
  let l = leader t key in
  match Leader.propose l t.acceptor (record t key) t.store ~self:t.id w ~notify with
  | Leader.Outcome committed -> announce_outcome t key w notify committed
  | verdict -> lead t key l verdict

and master_phase2b t ~src key txid ballot ok =
  let l = leader t key in
  lead t key l
    (Leader.ack l ~self:t.id ~quorum:(qc t) ~replicas:(t.replicas key) ~src txid ballot ~ok)

and master_phase1b t ~src key ballot ~ok ~promised promise =
  let l = leader t key in
  lead t key l
    (Leader.promise l t.acceptor (record t key) ~self:t.id ~quorum:(qc t)
       ~replicas:(t.replicas key) ~src ballot ~ok ~promised promise)

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
   place and acks its own vote.  The replicas {!Epoch.plan} names hear it
   at once, the others at the end of the epoch. *)
and broadcast_phase2a t key ballot (w : Woption.t) decision ~classic_until ~rebase =
  let replicas = t.replicas key in
  let mask = Epoch.plan t.epoch ~self:t.id ~quorum:(qc t) replicas in
  phase2a_to t key ballot w decision classic_until rebase
    (Messages.Phase2a { key; ballot; woption = w; decision; classic_until; rebase })
    mask 0 replicas

and phase2a_to t key ballot (w : Woption.t) decision classic_until rebase payload mask pos =
  function
  | [] -> ()
  | replica :: rest ->
    if replica = t.id then
      acceptor_phase2a t ~master:t.id key ballot w decision classic_until rebase
    else Epoch.send t.epoch ~mask ~pos replica w payload;
    phase2a_to t key ballot w decision classic_until rebase payload mask (pos + 1) rest

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

(* Phase1a to everybody at the Phase 1's ballot, and a re-drive if it
   stalls (lost messages, failed DC). *)
and redrive t key l =
  let a = Leader.attempt l in
  broadcast_phase1a t key l;
  let timeout = t.config.Config.learn_timeout +. Rng.float t.rng 200.0 in
  ignore
    (Runtime.set_timer t.runtime ~after:timeout (fun () ->
         let l = leader t key in
         lead_step t key l (Leader.redrive l ~self:t.id a)))

and broadcast_phase1a t key l =
  Obs.incr t.obs "phase1_round";
  let ballot = Leader.ballot l in
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

(* ------------------------------------------------------------------ *)
(* Dangling-transaction recovery (app-server failure, §3.2.3)          *)
(* ------------------------------------------------------------------ *)

and txn_recovery_learned t txid key decision =
  match Hashtbl.find t.recoveries txid with
  | exception Not_found -> ()
  | d ->
    let i = Txn_decision.find d key in
    if i >= 0 then txn_recovery_step t txid d i (Txn_decision.learn d i decision)

and txn_recovery_step t txid d i = function
  | Txn_decision.Pending -> ()
  | Txn_decision.Escalate | Txn_decision.Collided ->
    let w = Txn_decision.option d i in
    let key = w.Woption.key in
    (* A recoverer hears from no master to judge it by: it rotates. *)
    let target = Txn_decision.target d i ~master:(t.master_of key) ~rotate:true in
    if target = t.id then master_propose t w ~notify:[ t.id ]
    else send t target (Messages.Start_recovery { key; woption = w })
  | Txn_decision.Decided outcome -> finish_txn_recovery t txid d (outcome = Txn.Committed)

(* Issue the Visibilities on the dead coordinator's behalf.  A key no
   reply reported yet takes this node's own pending option, if it holds
   one: its own status reply may still be on its way, and the placeholder
   would make this node refuse its own option. *)
and finish_txn_recovery t txid d committed =
  Hashtbl.remove t.recoveries txid;
  if live t then emit t (Event.Txn_recovery_finished { txid; committed });
  for i = 0 to Txn_decision.length d - 1 do
    let key = (Txn_decision.option d i).Woption.key in
    (match Acceptor.status t.acceptor txid key with
    | Messages.Status_pending v -> Txn_decision.fill d i v.Messages.woption
    | Messages.Status_decided _ | Messages.Status_unknown -> ());
    let w = Txn_decision.option d i in
    fan_out t
      (Messages.Visibility { woption = w; committed })
      (fun () -> visibility t txid key w.Woption.update committed)
      (Txn_decision.replicas d i)
  done

let start_txn_recovery t (w : Woption.t) =
  let txid = w.Woption.txid in
  if not (Hashtbl.mem t.recoveries txid) then begin
    let d = Txn_decision.of_option ~replicas:t.replicas ~self:t.id w in
    Hashtbl.replace t.recoveries txid d;
    if live t then emit t (Event.Txn_recovery_started { txid; keys = Txn_decision.length d });
    List.iter
      (fun key ->
        fan_out t
          (Messages.Status_query { txid; key })
          (fun () -> status_query t ~src:t.id txid key)
          (t.replicas key))
      w.Woption.write_set;
    (* If recovery stalls (failed replicas), forget it so a later scan can
       retry from scratch with fresh messages. *)
    ignore
      (Runtime.set_timer t.runtime ~after:(3.0 *. t.config.Config.txn_timeout) (fun () ->
           match Hashtbl.find t.recoveries txid with
           | d' when d' == d -> Hashtbl.remove t.recoveries txid
           | (_ : Txn_decision.t) | (exception Not_found) -> ()))
  end

(* Step a replica's status reply on its key's slot. *)
let txn_recovery_status t txid key status acceptor =
  match Hashtbl.find t.recoveries txid with
  | exception Not_found -> ()
  | d ->
    let i = Txn_decision.find d key in
    if i >= 0 then txn_recovery_step t txid d i (Txn_decision.status t.config d i ~acceptor status)

(* Periodic scan for pending options whose coordinator went silent.  The
   record's master reacts after one timeout; other replicas after three, so
   a single node usually drives each recovery.  A node with no pending
   option at all, as most nodes are at most ticks, returns at once without
   reading the clock.  Otherwise the scan visits every record and almost
   always finds nothing, so it first asks [stale_walk] whether any option
   is past the timeout at all: a walk that allocates nothing.  Only then
   are candidates collected, all before the first recovery starts, since
   starting one mutates the acceptor's records.  Recoveries start in reverse (key,
   pending) order, all in one step: a replica queried on several keys gets
   one message. *)
let scan_dangling t =
  if Acceptor.pending_records t.acceptor > 0 then begin
    Runtime.now_into t.runtime t.now;
    if Acceptor.any_record t.stale_walk t.acceptor then begin
      let now = t.now and timeout = t.config.Config.txn_timeout in
      let stale_in key (rs : Acceptor.t) =
        (* The shortest deadline first: it settles almost every record
           without computing the record's master. *)
        if not (Acceptor.any_older rs ~now timeout) then None
        else begin
          let limit = timeout *. if t.master_of key = t.id then 1.0 else 3.0 in
          let open_here (w : Woption.t) = Acceptor.outcome t.acceptor rs w.Woption.txid = None in
          match List.filter open_here (Acceptor.older_than rs ~now limit) with
          | [] -> None
          | stale -> Some stale
        end
      in
      Outbox.enter t.outbox;
      Acceptor.filter_records stale_in t.acceptor
      |> List.concat |> List.rev
      |> List.iter (start_txn_recovery t);
      Outbox.leave t.outbox
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
    (* Its items are handled within the delivery's step, so what they
       send goes out folded per destination: the votes on a batch of
       proposals return as one message. *)
    handle_each t ~src items 0
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
    Epoch.answered t.epoch ~src key txid;
    master_phase2b t ~src key txid ballot ok
  | Messages.Learned { key; txid; decision } ->
    (match Key.Tbl.find t.masters key with
    | l -> List.iter (fun dst -> send t dst payload) (Leader.forward l txid)
    | exception Not_found -> ());
    txn_recovery_learned t txid key decision
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
  | Messages.Catchup { key; rebase } -> count_repair t (Acceptor.rebase t.acceptor key rebase)
  | Messages.Read_request { rid; key } ->
    let row = Store.ensure t.store key in
    send t src
      (Messages.Read_reply
         { rid; key; value = row.Store.value; version = row.Store.version; exists = row.Store.exists })
  (* Coordinator-bound replies, and the scan pair nothing sends. *)
  | Messages.Phase2b_fast _ | Messages.Redirect _ | Messages.Read_reply _
  | Messages.Scan_request _ | Messages.Scan_reply _ -> ()
  | _ -> ()

and handle_each t ~src items i =
  if i < Array.length items then begin
    handle t ~src items.(i);
    handle_each t ~src items (i + 1)
  end

let create ~runtime ~config ~node_id ~schema ~replicas ~master_of ?(ctx = Ctx.make ()) () =
  let obs = ctx.Ctx.obs and now = { Mdcc_sim.Engine.time = 0.0 } in
  let store = Store.create schema and outbox = Outbox.create runtime ~src:node_id in
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
      outbox;
      epoch = Epoch.create runtime outbox ~now;
    }
  in
  Runtime.register runtime node_id (fun ~src payload ->
      Outbox.enter outbox;
      handle t ~src payload;
      Outbox.leave outbox);
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

let recovering t = Hashtbl.length t.recoveries

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
