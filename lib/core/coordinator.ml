open Mdcc_storage
open Mdcc_paxos
module Net = Mdcc_sim.Network
module Engine = Mdcc_sim.Engine
module Rng = Mdcc_util.Rng
module Invariant = Mdcc_util.Invariant
module Obs = Mdcc_obs.Obs

(* A transaction in flight: its decision holds one slot per update, in
   ascending key order, and a message finds its slot by index. *)
type txn_state = {
  callback : Txn.outcome -> unit;
  decision : Txn_decision.t;
  mutable collided : (int * Engine.sim_time) list;
      (* the slots whose collision started a recovery, and when; for
         resolution-latency metrics *)
  mutable timeout : Runtime.timer;  (* [Runtime.no_timer] until armed *)
}

(* Who waits on a read: a [read] caller takes the row as an option, a
   [read_row] caller the row as it stands, an absent row's version
   included. *)
type answer =
  | As_option of ((Value.t * int) option -> unit)
  | As_row of (Value.t -> int -> bool -> unit)

(* A read waiting for [r_need] replies from distinct replicas.  Replies
   fold into the freshest one so far: a reply replaces it unless its
   version is lower, so on equal versions the one that arrived last wins. *)
type read_state = {
  r_answer : answer;
  r_need : int;
  mutable r_heard : Quorum.tally;  (* the replicas that answered *)
  mutable r_value : Value.t;
  mutable r_version : int;
  mutable r_exists : bool;
}

type snapshot_source = {
  snap_read : Key.t -> (Value.t * int) option;
  snap_scan : table:string -> (Key.t * Value.t * int) list;  (* read by nothing; see the .mli *)
}

type t = {
  runtime : Runtime.t;
  config : Config.t;
  id : int;
  dc : int;
  replicas : Key.t -> int list;
  master_of : Key.t -> int;
  snapshot : snapshot_source option;  (* co-located stores, for reads without a message *)
  txns : (Txn.id, txn_state) Hashtbl.t;
  windows : (Key.t, int) Hashtbl.t;  (* key -> the end of its classic window, as last reported *)
  reads : (int, read_state) Hashtbl.t;
  mutable next_rid : int;
  rng : Rng.t;
  obs : Obs.t;
  stream : Ctx.stream;  (* this node's protocol events *)
  txn_submitted : Obs.counter;  (* the per-transaction counters, resolved once *)
  fast_commit : Obs.counter;
  outbox : Outbox.t;  (* what one instant's deliveries and submits send folds here *)
}

let node_id t = t.id

let now t = Runtime.now t.runtime

let send t dst payload = Outbox.send t.outbox dst payload

(* An event is built only when a consumer is live: [if live t then emit t ...]. *)
let live t = Ctx.live t.stream

let emit t ev = Ctx.emit t.stream ev

(* The version this coordinator knows an option's record at: the
   option's [vread], or the co-located row's version for an insert or a
   delta.  [max_int] when it knows none: no co-located store, or no row. *)
let known_version t (w : Woption.t) =
  match w.Woption.update with
  | Update.Physical { vread; _ } | Update.Delete { vread } | Update.Read_guard { vread } -> vread
  | Update.Insert _ | Update.Delta _ -> (
    match t.snapshot with
    | None -> max_int
    | Some s -> ( match s.snap_read w.Woption.key with Some (_, v) -> v | None -> max_int))

(* Keep the furthest classic window reported for [key]. *)
let note_window t key until =
  match Hashtbl.find t.windows key with
  | known when known >= until -> ()
  | (_ : int) | (exception Not_found) -> Hashtbl.replace t.windows key until

(* The client half of the γ policy: an option goes classic while the
   version known for its record is below the record's classic window, as
   the replicas enforce it; an unknown version goes fast, and a
   [Redirect] corrects it.  A window the record has reached is dropped.
   [find] with its exception, not [find_opt]: no [Some] per routed key. *)
let in_window t (w : Woption.t) =
  match Hashtbl.find t.windows w.Woption.key with
  | until when known_version t w < until -> true
  | (_ : int) ->
    Hashtbl.remove t.windows w.Woption.key;
    false
  | exception Not_found -> false

let route_classic t w = t.config.Config.mode = Config.Multi || in_window t w

(* One payload record to every replica, in list order or reversed: the
   payloads are immutable, so the replicas share it. *)
let rec send_each t p = function
  | [] -> ()
  | dst :: rest ->
    send t dst p;
    send_each t p rest

let rec send_each_rev t p = function
  | [] -> ()
  | dst :: rest ->
    send_each_rev t p rest;
    send t dst p

(* Settle a key's route — fast to every replica, or classic through the
   master inside the record's classic window. *)
let route_proposal t (ts : txn_state) i =
  let w = Txn_decision.option ts.decision i in
  let classic = route_classic t w in
  if live t then begin
    let route = if classic then `Classic else `Fast in
    emit t (Event.Proposed { txid = w.Woption.txid; key = w.Woption.key; route })
  end;
  if classic then ignore (Txn_decision.redirect ts.decision i)

let propose t (ts : txn_state) i =
  let w = Txn_decision.option ts.decision i in
  if Txn_decision.redirected ts.decision i then
    send t (t.master_of w.Woption.key) (Messages.Propose { woption = w; route = `Classic })
  else
    send_each t
      (Messages.Propose { woption = w; route = `Fast })
      (Txn_decision.replicas ts.decision i)

let decide t (ts : txn_state) outcome =
  let d = ts.decision in
  let txid = Txn_decision.txid d in
  Runtime.cancel_timer t.runtime ts.timeout;
  Hashtbl.remove t.txns txid;
  (match outcome with
  | Txn.Committed ->
    if Txn_decision.fast_path d && t.config.Config.mode <> Config.Multi
    then Obs.bump t.fast_commit
    else Obs.incr t.obs "assisted_commit"
  | Txn.Aborted Txn.Constraint_violation -> Obs.incr t.obs "abort_constraint"
  | Txn.Aborted _ -> Obs.incr t.obs "abort_conflict");
  if live t then emit t (Event.Decided { txid; outcome });
  (* Asynchronous Learned/Visibility notification: execute or void every
     option; correctness does not depend on its timing (§3.2.1).  Keys are
     queued in descending order, each key's replicas in reverse, into the
     held delivery's outbox, so they fold into one message per replica
     with whatever the callback submits at this instant, and come first
     in it. *)
  let committed = outcome = Txn.Committed in
  for i = Txn_decision.length d - 1 downto 0 do
    send_each_rev t
      (Messages.Visibility { woption = Txn_decision.option d i; committed })
      (Txn_decision.replicas d i)
  done;
  ts.callback outcome

let escalate t (ts : txn_state) i =
  let w = Txn_decision.option ts.decision i in
  let key = w.Woption.key in
  (* The master's recovery opens a window of γ versions from a version no
     lower than the one known here. *)
  let known = known_version t w in
  if known <> max_int then note_window t key (known + t.config.Config.gamma);
  let target = Txn_decision.target ts.decision i ~master:(t.master_of key) in
  if live t then emit t (Event.Recovery_started { txid = w.Woption.txid; key; target });
  send t target (Messages.Start_recovery { key; woption = w })

(* Act on a step of slot [i], which was open before it when [was_open]:
   report what the slot learned, then follow the verdict. *)
let stepped t (ts : txn_state) i ~was_open verdict =
  let d = ts.decision in
  (match Txn_decision.learned d i with
  | Some decision when was_open ->
    let key = (Txn_decision.option d i).Woption.key and txid = Txn_decision.txid d in
    if live t then emit t (Event.Learned { txid; key; decision });
    (match List.assoc i ts.collided with
    | at ->
      (* The collision on this key has now been resolved (either way). *)
      Obs.incr t.obs "collision_resolved";
      Obs.observe t.obs "collision_resolve_ms" (now t -. at);
      if live t then emit t (Event.Collision_resolved { txid; key })
    | exception Not_found -> ())
  | Some _ | None -> ());
  match verdict with
  | Txn_decision.Pending -> ()
  | Txn_decision.Escalate -> escalate t ts i
  | Txn_decision.Collided ->
    (* Fast Paxos collision: no outcome can reach a fast quorum. *)
    ts.collided <- (i, now t) :: ts.collided;
    Obs.incr t.obs "collision";
    let votes = Txn_decision.votes d i in
    let acks = Quorum.Tally.acks votes and rejects = Quorum.Tally.rejects votes in
    let key = (Txn_decision.option d i).Woption.key in
    if live t then emit t (Event.Collided { txid = Txn_decision.txid d; key; acks; rejects });
    escalate t ts i
  | Txn_decision.Decided outcome -> decide t ts outcome

let is_open (ts : txn_state) i = Txn_decision.learned ts.decision i = None

(* [find] with its exception rather than [find_opt], and the slot's
   index rather than an option: a vote allocates nothing to find its
   transaction and key. *)
let on_vote t txid key acceptor decision =
  match Hashtbl.find t.txns txid with
  | exception Not_found -> ()
  | ts ->
    let i = Txn_decision.find ts.decision key in
    if i >= 0 then begin
      let was_open = is_open ts i in
      stepped t ts i ~was_open (Txn_decision.fast_vote t.config ts.decision i ~acceptor decision)
    end

let on_learned t txid key decision =
  match Hashtbl.find t.txns txid with
  | exception Not_found -> ()
  | ts ->
    let i = Txn_decision.find ts.decision key in
    if i >= 0 then begin
      let was_open = is_open ts i in
      stepped t ts i ~was_open (Txn_decision.learn ts.decision i decision)
    end

(* A replica found the transaction already decided. *)
let on_outcome t (w : Woption.t) committed =
  match Hashtbl.find t.txns w.Woption.txid with
  | exception Not_found -> ()
  | ts ->
    let i = Txn_decision.find ts.decision w.Woption.key in
    if i >= 0 then begin
      let was_open = is_open ts i in
      stepped t ts i ~was_open (Txn_decision.outcome ts.decision i committed)
    end

(* A Redirect reports its record's classic window; like every reply, it
   counts only for an option still open. *)
let on_redirect t txid key master classic_until =
  match Hashtbl.find t.txns txid with
  | exception Not_found -> ()
  | ts ->
    let i = Txn_decision.find ts.decision key in
    if i >= 0 then begin
      note_window t key classic_until;
      if Txn_decision.redirect ts.decision i then begin
        Obs.incr t.obs "redirect";
        if live t then emit t (Event.Redirected { txid; key; master });
        send t master
          (Messages.Propose { woption = Txn_decision.option ts.decision i; route = `Classic })
      end
    end

(* One timeout's escalations are one step: keys that share a target send
   it one message, under the transaction's trace context, as the cause of
   the recovery cascade. *)
let rec arm_timeout t (ts : txn_state) =
  let jitter = Rng.float t.rng 100.0 in
  ts.timeout <-
    Runtime.set_timer t.runtime ~after:(t.config.Config.learn_timeout +. jitter) (fun () ->
        let txid = Txn_decision.txid ts.decision in
        if Hashtbl.mem t.txns txid then begin
          Outbox.enter t.outbox;
          for i = 0 to Txn_decision.length ts.decision - 1 do
            match Txn_decision.timeout ts.decision i with
            | Txn_decision.Escalate ->
              Obs.incr t.obs "timeout_recovery";
              escalate t ts i
            | Txn_decision.Pending | Txn_decision.Collided | Txn_decision.Decided _ -> ()
          done;
          Net.apply_with_trace_context (Some txid) Outbox.leave t.outbox;
          arm_timeout t ts
        end)

let submit t txn callback =
  if Txn.is_read_only txn then
    Runtime.spawn t.runtime (fun () -> callback Txn.Committed)
  else begin
    let decision = Txn_decision.of_txn ~replicas:t.replicas ~coordinator:t.id txn in
    let ts = { callback; decision; collided = []; timeout = Runtime.no_timer } in
    Hashtbl.replace t.txns txn.Txn.id ts;
    Obs.bump t.txn_submitted;
    if live t then emit t (Event.Submitted txn);
    (* Routes and their spans are settled in key order; the proposals
       are then queued in descending key order and leave folded into one
       message per destination under the transaction's trace context:
       every Propose (and every message it triggers in turn) carries its
       id, which both runtimes propagate and the bench tracer attributes
       time to.  A submit made while a delivery holds the outbox joins
       it: its proposals leave with the delivery's sends when the instant
       ends, after this context is gone, so they carry none. *)
    let keys = Txn_decision.length decision in
    for i = 0 to keys - 1 do
      route_proposal t ts i
    done;
    Outbox.enter t.outbox;
    for i = keys - 1 downto 0 do
      propose t ts i
    done;
    Net.apply_with_trace_context (Some txn.Txn.id) Outbox.leave t.outbox;
    arm_timeout t ts
  end

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

(* The first of [rs] in the coordinator's data center, else [first]:
   top-level, so a read builds no closure and no [Some]. *)
let rec first_in_dc t first = function
  | [] -> first
  | r :: rest -> if Runtime.dc_of t.runtime r = t.dc then r else first_in_dc t first rest

let local_replica t key =
  match t.replicas key with
  | r :: _ as rs -> first_in_dc t r rs
  | [] ->
    Invariant.violate ~node:t.id ~context:"Coordinator.local_replica"
      "key %s has no replicas" (Key.to_string key)

let new_read t ~need answer =
  let rid = t.next_rid in
  t.next_rid <- t.next_rid + 1;
  Hashtbl.replace t.reads rid
    { r_answer = answer; r_need = need; r_heard = Quorum.Tally.empty; r_value = Value.empty;
      r_version = min_int; r_exists = false };
  rid

let read_local t key answer =
  Obs.incr t.obs "read_local";
  let rid = new_read t ~need:1 answer in
  send t (local_replica t key) (Messages.Read_request { rid; key })

let read_majority t key answer =
  Obs.incr t.obs "read_majority";
  let rid = new_read t ~need:(Config.classic_quorum t.config) answer in
  List.iter (fun r -> send t r (Messages.Read_request { rid; key })) (t.replicas key)

(* Answer from the co-located store when it can: decided synchronously,
   so a caller that gets [false] sends exactly the messages it would have
   sent without asking.  The callback is still deferred through the
   runtime, so every level keeps the same callback-asynchrony contract. *)
let read_colocated t key ~fresh cb =
  match t.snapshot with
  | None -> false
  | Some s ->
    let row = s.snap_read key in
    fresh key row
    && begin
      Runtime.spawn t.runtime (fun () -> cb row);
      true
    end

let any_row (_ : Key.t) (_ : (Value.t * int) option) = true

(* A [`Local] read is a co-located read with no version floor; an
   app-server wired without co-located stores sends it as a message. *)
let read ?(level = `Local) t key cb =
  match level with
  | `Local ->
    if read_colocated t key ~fresh:any_row cb then Obs.incr t.obs "read_colocated"
    else read_local t key (As_option cb)
  | `Majority -> read_majority t key (As_option cb)

let read_row ~level t key cb =
  match level with
  | `Local -> read_local t key (As_row cb)
  | `Majority -> read_majority t key (As_row cb)

let on_read_reply t rid acceptor key value version exists =
  match Hashtbl.find t.reads rid with
  | exception Not_found -> ()
  | rs ->
    let heard = Quorum.Tally.reply rs.r_heard ~pos:(Quorum.position acceptor (t.replicas key)) in
    if heard <> rs.r_heard then begin
      rs.r_heard <- heard;
      if version >= rs.r_version then begin
        rs.r_value <- value;
        rs.r_version <- version;
        rs.r_exists <- exists
      end;
      if Quorum.Tally.replies heard = rs.r_need then begin
        Hashtbl.remove t.reads rid;
        match rs.r_answer with
        | As_row cb -> cb rs.r_value rs.r_version rs.r_exists
        | As_option cb -> cb (if rs.r_exists then Some (rs.r_value, rs.r_version) else None)
      end
    end

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let rec handle t ~src payload =
  match payload with
  | Messages.Batch items -> handle_each t ~src items 0
  | Messages.Phase2b_fast { woption; decision } ->
    on_vote t woption.Woption.txid woption.Woption.key src decision
  | Messages.Learned { key; txid; decision } -> on_learned t txid key decision
  | Messages.Redirect { key; txid; master; classic_until } ->
    on_redirect t txid key master classic_until
  | Messages.Visibility { woption; committed } -> on_outcome t woption committed
  | Messages.Read_reply { rid; key; value; version; exists } ->
    on_read_reply t rid src key value version exists
  (* Acceptor- and storage-bound traffic; a coordinator is never their
     destination, so receiving one is a routing mistake we ignore.  Nothing
     sends the scan pair. *)
  | Messages.Propose _ | Messages.Phase1a _ | Messages.Phase1b _ | Messages.Phase2a _
  | Messages.Phase2b_master _ | Messages.Start_recovery _
  | Messages.Status_query _ | Messages.Status_reply _ | Messages.Catchup_request _
  | Messages.Catchup _ | Messages.Sync_request _ | Messages.Sync_reply _
  | Messages.Read_request _ | Messages.Scan_request _ | Messages.Scan_reply _ -> ()
  | _ -> ()

and handle_each t ~src items i =
  if i < Array.length items then begin
    handle t ~src items.(i);
    handle_each t ~src items (i + 1)
  end

let create ~runtime ~config ~node_id ~replicas ~master_of ?snapshot ?(ctx = Ctx.make ())
    () =
  let obs = ctx.Ctx.obs in
  let t =
    {
      runtime;
      config;
      id = node_id;
      dc = Runtime.dc_of runtime node_id;
      replicas;
      master_of;
      snapshot;
      txns = Hashtbl.create 16;
      windows = Hashtbl.create 16;
      reads = Hashtbl.create 16;
      next_rid = 0;
      rng = Rng.split (Runtime.rng runtime);
      obs;
      stream = Ctx.stream ctx runtime ~node:node_id;
      txn_submitted = Obs.counter obs "txn_submitted";
      fast_commit = Obs.counter obs "fast_commit";
      outbox = Outbox.create runtime ~src:node_id;
    }
  in
  (* One delivery is one outbox step that lasts until the end of its
     virtual instant.  When the handler has queued anything, the step is
     left by a spawned [release], not at once: the callbacks that a
     decide spawned during [handle] (a client's co-located reads) run
     first, so a transaction they submit joins the step, and each replica
     gets one message for the instant, a decided transaction's
     Visibilities ahead of the next one's Proposes.  A delivery that
     finds the step held (something queued, which outside a step never
     is) nests in it and leaves at once: the pending release sends what
     it queues too.  [let rec] builds the two closures as one block that
     holds [t] once. *)
  let rec deliver ~src payload =
    let held = Outbox.queued t.outbox in
    Outbox.enter t.outbox;
    handle t ~src payload;
    if (not held) && Outbox.queued t.outbox then Runtime.spawn t.runtime release
    else Outbox.leave t.outbox
  and release () = Outbox.leave t.outbox in
  Runtime.register runtime node_id deliver;
  t

let inflight t = Hashtbl.length t.txns

let obs t = t.obs

let runtime t = t.runtime
