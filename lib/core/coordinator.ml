open Mdcc_storage
open Mdcc_paxos
module Net = Mdcc_sim.Network
module Engine = Mdcc_sim.Engine
module Rng = Mdcc_util.Rng
module Table = Mdcc_util.Table
module Invariant = Mdcc_util.Invariant
module Obs = Mdcc_obs.Obs

type key_state = {
  woption : Woption.t;
  replicas : int list;  (* the key's replica group; a vote counts by its position here *)
  mutable votes : Quorum.tally;  (* the fast votes that arrived *)
  mutable learned : Woption.decision option;
  mutable collided : bool;  (** Start_recovery already sent for this window *)
  mutable collided_at : Engine.sim_time option;
      (** when the collision was detected, for resolution-latency metrics *)
  mutable redirected : bool;  (** already re-routed to the master *)
  mutable attempts : int;  (** timeout-driven recovery attempts *)
}

(* A transaction in flight.  [keys] holds one slot per update, in
   ascending [Key.compare] order; its options share one write-set.  A
   message finds its slot by a linear scan: write-sets are a handful of
   keys, and [Txn.make] has already ruled out duplicates. *)
type txn_state = {
  txn : Txn.t;
  callback : Txn.outcome -> unit;
  keys : key_state array;
  mutable undecided : int;
  mutable timeout : Runtime.timer option;
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
  hints : (Key.t, float) Hashtbl.t;  (** classic-routing hint -> expiry time *)
  reads : (int, read_state) Hashtbl.t;
  mutable next_rid : int;
  rng : Rng.t;
  obs : Obs.t;
  stream : Ctx.stream;  (* this node's protocol events *)
  txn_submitted : Obs.counter;  (* the per-transaction counters, resolved once *)
  fast_commit : Obs.counter;
  mutable outbox : (int * Net.payload) list;  (* a batched broadcast, newest first *)
}

(* How long a collision keeps steering this coordinator to the master before
   it probes fast ballots again (client-side half of the γ policy). *)
let hint_ttl = 2000.0

let node_id t = t.id

let now t = Runtime.now t.runtime

let send t dst payload = Runtime.send t.runtime ~src:t.id ~dst payload

(* An event is built only when a consumer is live: [if live t then emit t ...]. *)
let live t = Ctx.live t.stream

let emit t ev = Ctx.emit t.stream ev

let n t = t.config.Config.replication

(* [find] with its exception, not [find_opt]: no [Some] per routed key
   while a hint is live. *)
let hint_active t key =
  match Hashtbl.find t.hints key with
  | expiry when now t < expiry -> true
  | (_ : float) ->
    Hashtbl.remove t.hints key;
    false
  | exception Not_found -> false

let set_hint t key = Hashtbl.replace t.hints key (now t +. hint_ttl)

let route_classic t key = t.config.Config.mode = Config.Multi || hint_active t key

(* Fold a broadcast into per-destination Batch messages, in ascending
   destination order; a destination with one payload gets it bare. *)
let send_batched t pairs =
  let by_dst = Hashtbl.create 8 in
  List.iter
    (fun (dst, p) ->
      let existing = Option.value (Hashtbl.find_opt by_dst dst) ~default:[] in
      Hashtbl.replace by_dst dst (p :: existing))
    pairs;
  Table.sorted_iter ~compare:Int.compare
    (fun dst ps ->
      match ps with
      | [ p ] -> send t dst p
      | ps -> send t dst (Messages.Batch (List.rev ps)))
    by_dst

(* One message of a broadcast.  Unbatched, it goes out at once and no
   list of (destination, payload) pairs is built; batched, it waits in
   [t.outbox] until [flush] folds the broadcast per destination. *)
let out t dst p =
  if t.config.Config.batching then t.outbox <- (dst, p) :: t.outbox else send t dst p

let flush t =
  if t.config.Config.batching then begin
    let pairs = List.rev t.outbox in
    t.outbox <- [];
    send_batched t pairs
  end

(* One payload record to every replica, in list order or reversed: the
   payloads are immutable, so the replicas share it. *)
let rec out_each t p = function
  | [] -> ()
  | dst :: rest ->
    out t dst p;
    out_each t p rest

let rec out_each_rev t p = function
  | [] -> ()
  | dst :: rest ->
    out_each_rev t p rest;
    out t dst p

(* Settle a key's route — fast to every replica, or classic through the
   master while a collision hint is live. *)
let route_proposal t (ks : key_state) =
  let w = ks.woption in
  let classic = route_classic t w.Woption.key in
  if live t then begin
    let route = if classic then `Classic else `Fast in
    emit t (Event.Proposed { txid = w.Woption.txid; key = w.Woption.key; route })
  end;
  if classic then ks.redirected <- true

let propose t (ks : key_state) =
  let w = ks.woption in
  if ks.redirected then
    out t (t.master_of w.Woption.key) (Messages.Propose { woption = w; route = `Classic })
  else out_each t (Messages.Propose { woption = w; route = `Fast }) ks.replicas

let decide t (ts : txn_state) =
  (match ts.timeout with Some h -> Runtime.cancel_timer t.runtime h | None -> ());
  Hashtbl.remove t.txns ts.txn.Txn.id;
  let committed = ref true and commutative = ref true and pure_fast = ref true in
  for i = 0 to Array.length ts.keys - 1 do
    let ks = ts.keys.(i) in
    (match ks.learned with
    | Some Woption.Rejected ->
      committed := false;
      if not (Woption.is_commutative ks.woption) then commutative := false
    | Some Woption.Accepted | None -> ());
    if ks.collided || ks.redirected || ks.attempts > 0 then pure_fast := false
  done;
  let committed = !committed in
  let outcome =
    if committed then Txn.Committed
    else if !commutative then Txn.Aborted Txn.Constraint_violation
    else Txn.Aborted Txn.Conflict
  in
  (match outcome with
  | Txn.Committed ->
    if !pure_fast && t.config.Config.mode <> Config.Multi then Obs.bump t.fast_commit
    else Obs.incr t.obs "assisted_commit"
  | Txn.Aborted Txn.Constraint_violation -> Obs.incr t.obs "abort_constraint"
  | Txn.Aborted _ -> Obs.incr t.obs "abort_conflict");
  if live t then emit t (Event.Decided { txid = ts.txn.Txn.id; outcome });
  (* Asynchronous Learned/Visibility notification: execute or void every
     option; correctness does not depend on its timing (§3.2.1).  Keys go
     out in descending order, each key's replicas in reverse. *)
  for i = Array.length ts.keys - 1 downto 0 do
    let ks = ts.keys.(i) in
    out_each_rev t
      (Messages.Visibility
         {
           txid = ts.txn.Txn.id;
           key = ks.woption.Woption.key;
           update = ks.woption.Woption.update;
           committed;
         })
      ks.replicas
  done;
  flush t;
  ts.callback outcome

(* Learned outcomes, allocated once. *)
let learned_accepted = Some Woption.Accepted

let learned_rejected = Some Woption.Rejected

let learn t (ts : txn_state) (ks : key_state) decision =
  match ks.learned with
  | Some _ -> ()
  | None ->
    ks.learned <-
      (match decision with
      | Woption.Accepted -> learned_accepted
      | Woption.Rejected -> learned_rejected);
    ts.undecided <- ts.undecided - 1;
    let txid = ts.txn.Txn.id and key = ks.woption.Woption.key in
    if live t then emit t (Event.Learned { txid; key; decision });
    (match ks.collided_at with
    | Some at ->
      (* The collision on this key has now been resolved (either way). *)
      ks.collided_at <- None;
      Obs.incr t.obs "collision_resolved";
      Obs.observe t.obs "collision_resolve_ms" (now t -. at);
      if live t then emit t (Event.Collision_resolved { txid; key })
    | None -> ());
    if ts.undecided = 0 then decide t ts

let start_recovery_for t (ks : key_state) =
  let w = ks.woption in
  let key = w.Woption.key in
  set_hint t key;
  (* Rotate through replicas on repeated attempts so a failed master does
     not block the transaction forever. *)
  let master = t.master_of key in
  let target =
    if ks.attempts = 0 then master
    else begin
      let others = List.filter (fun r -> r <> master) (t.replicas key) in
      let all = master :: others in
      List.nth all (ks.attempts mod List.length all)
    end
  in
  ks.attempts <- ks.attempts + 1;
  if live t then emit t (Event.Recovery_started { txid = w.Woption.txid; key; target });
  (* Timeout-driven recoveries run outside any delivery, so re-establish the
     causal context explicitly for the recovery cascade. *)
  Net.with_trace_context (Some w.Woption.txid) (fun () ->
      send t target (Messages.Start_recovery { key; woption = w }))

(* The index of [key]'s slot, or -1. *)
let rec slot_index (keys : key_state array) key i =
  if i = Array.length keys then -1
  else if Key.equal keys.(i).woption.Woption.key key then i
  else slot_index keys key (i + 1)

(* [find] with its exception rather than [find_opt], and the slot's
   index rather than an option: a vote allocates nothing to find its
   transaction and key. *)
let on_vote t txid key acceptor decision =
  match Hashtbl.find t.txns txid with
  | exception Not_found -> ()
  | ts ->
    let i = slot_index ts.keys key 0 in
    if i >= 0 then begin
      let ks = ts.keys.(i) in
      let pos = Quorum.position acceptor ks.replicas in
      let votes = Quorum.Tally.vote ks.votes ~pos ~ok:(decision = Woption.Accepted) in
      if ks.learned = None && votes <> ks.votes then begin
        ks.votes <- votes;
        match Quorum.Tally.decided votes ~quorum:(Config.fast_quorum t.config) with
        | Some ok -> learn t ts ks (Woption.of_ok ok)
        | None ->
          if Quorum.Tally.fast_impossible votes ~n:(n t) && not ks.collided then begin
            (* Fast Paxos collision: no outcome can reach a fast quorum. *)
            ks.collided <- true;
            ks.collided_at <- Some (now t);
            Obs.incr t.obs "collision";
            let acks = Quorum.Tally.acks votes and rejects = Quorum.Tally.rejects votes in
            if live t then emit t (Event.Collided { txid; key; acks; rejects });
            start_recovery_for t ks
          end
      end
    end

let on_learned t txid key decision =
  match Hashtbl.find t.txns txid with
  | exception Not_found -> ()
  | ts ->
    let i = slot_index ts.keys key 0 in
    if i >= 0 then learn t ts ts.keys.(i) decision

let on_redirect t txid key master =
  match Hashtbl.find t.txns txid with
  | exception Not_found -> ()
  | ts ->
    let i = slot_index ts.keys key 0 in
    if i >= 0 then begin
      let ks = ts.keys.(i) in
      set_hint t key;
      if ks.learned = None && not ks.redirected then begin
        ks.redirected <- true;
        Obs.incr t.obs "redirect";
        if live t then emit t (Event.Redirected { txid; key; master });
        send t master (Messages.Propose { woption = ks.woption; route = `Classic })
      end
    end

let rec arm_timeout t (ts : txn_state) =
  let jitter = Rng.float t.rng 100.0 in
  ts.timeout <-
    Some
      (Runtime.set_timer t.runtime ~after:(t.config.Config.learn_timeout +. jitter) (fun () ->
           if Hashtbl.mem t.txns ts.txn.Txn.id then begin
             Array.iter
               (fun ks ->
                 if ks.learned = None then begin
                   Obs.incr t.obs "timeout_recovery";
                   start_recovery_for t ks
                 end)
               ts.keys;
             arm_timeout t ts
           end))

let new_slot t (txn : Txn.t) write_set (key, update) =
  let woption = { Woption.txid = txn.Txn.id; key; update; write_set; coordinator = t.id } in
  { woption; replicas = t.replicas key; votes = Quorum.Tally.empty; learned = None;
    collided = false; collided_at = None; redirected = false; attempts = 0 }

let rec fill t txn write_set keys i = function
  | [] -> ()
  | u :: rest ->
    keys.(i) <- new_slot t txn write_set u;
    fill t txn write_set keys (i + 1) rest

(* The slots of a non-empty write-set in ascending key order, by an
   insertion sort: write-sets are a handful of keys. *)
let slots t (txn : Txn.t) =
  let write_set = Txn.keys txn in
  match txn.Txn.updates with
  | [] -> [||]
  | first :: rest ->
    let keys = Array.make (List.length txn.Txn.updates) (new_slot t txn write_set first) in
    fill t txn write_set keys 1 rest;
    for i = 1 to Array.length keys - 1 do
      let ks = keys.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && Key.compare keys.(!j).woption.Woption.key ks.woption.Woption.key > 0 do
        keys.(!j + 1) <- keys.(!j);
        decr j
      done;
      keys.(!j + 1) <- ks
    done;
    keys

let submit t txn callback =
  if Txn.is_read_only txn then
    Runtime.spawn t.runtime (fun () -> callback Txn.Committed)
  else begin
    let keys = slots t txn in
    let ts = { txn; callback; keys; undecided = Array.length keys; timeout = None } in
    Hashtbl.replace t.txns txn.Txn.id ts;
    Obs.bump t.txn_submitted;
    if live t then emit t (Event.Submitted txn);
    (* Establish the causal trace context: every Propose (and every message
       it triggers in turn) carries this transaction's id, which both
       runtimes propagate and the bench tracer attributes time to. *)
    Net.with_trace_context (Some txn.Txn.id) (fun () ->
        (* Routes and their spans are settled in key order; the proposals
           then go out in descending key order. *)
        for i = 0 to Array.length keys - 1 do
          route_proposal t keys.(i)
        done;
        for i = Array.length keys - 1 downto 0 do
          propose t keys.(i)
        done;
        flush t);
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

(* [`Snapshot] is a co-located read with no version floor; an app-server
   wired without co-located stores degrades to [`Local]. *)
let read_snapshot t key cb =
  if read_colocated t key ~fresh:any_row cb then Obs.incr t.obs "snapshot_fast_path"
  else begin
    Obs.incr t.obs "snapshot_fallback";
    read_local t key (As_option cb)
  end

let read ?(level = `Local) t key cb =
  match level with
  | `Local -> read_local t key (As_option cb)
  | `Majority -> read_majority t key (As_option cb)
  | `Snapshot -> read_snapshot t key cb

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
  | Messages.Batch items -> List.iter (handle t ~src) items
  | Messages.Phase2b_fast { key; txid; decision; acceptor } -> on_vote t txid key acceptor decision
  | Messages.Learned { key; txid; decision } -> on_learned t txid key decision
  | Messages.Redirect { key; txid; master; classic_until = _ } -> on_redirect t txid key master
  | Messages.Read_reply { rid; key; value; version; exists } ->
    on_read_reply t rid src key value version exists
  (* Acceptor- and storage-bound traffic; a coordinator is never their
     destination, so receiving one is a routing mistake we ignore.  Nothing
     sends the scan pair. *)
  | Messages.Propose _ | Messages.Phase1a _ | Messages.Phase1b _ | Messages.Phase2a _
  | Messages.Phase2b_master _ | Messages.Visibility _ | Messages.Start_recovery _
  | Messages.Status_query _ | Messages.Status_reply _ | Messages.Catchup_request _
  | Messages.Catchup _ | Messages.Sync_request _ | Messages.Sync_reply _
  | Messages.Read_request _ | Messages.Scan_request _ | Messages.Scan_reply _ -> ()
  | _ -> ()

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
      hints = Hashtbl.create 16;
      reads = Hashtbl.create 16;
      next_rid = 0;
      rng = Rng.split (Runtime.rng runtime);
      obs;
      stream = Ctx.stream ctx runtime ~node:node_id;
      txn_submitted = Obs.counter obs "txn_submitted";
      fast_commit = Obs.counter obs "fast_commit";
      outbox = [];
    }
  in
  Runtime.register runtime node_id (fun ~src payload -> handle t ~src payload);
  t

let inflight t = Hashtbl.length t.txns

let obs t = t.obs

let runtime t = t.runtime
