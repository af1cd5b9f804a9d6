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
  replicas : int list;  (* the key's replica group; a vote's bit is its position here *)
  mutable voted : int;  (* bitmask of the replica positions whose fast vote arrived *)
  mutable acks : int;
  mutable rejects : int;
  mutable learned : Woption.decision option;
  mutable collided : bool;  (** Start_recovery already sent for this window *)
  mutable collided_at : Engine.sim_time option;
      (** when the collision was detected, for resolution-latency metrics *)
  mutable redirected : bool;  (** already re-routed to the master *)
  mutable attempts : int;  (** timeout-driven recovery attempts *)
}

type txn_state = {
  txn : Txn.t;
  callback : Txn.outcome -> unit;
  mutable keys : key_state Key.Map.t;
  mutable undecided : int;
  mutable timeout : Runtime.timer option;
}

type read_state = {
  r_key : Key.t;
  r_need : int;
  r_cb : (Value.t * int) option -> unit;
  mutable r_replies : (int * (Value.t * int * bool)) list;
  mutable r_done : bool;
}

type scan_state = {
  s_order_by : string option;
  s_limit : int;
  s_cb : (Key.t * Value.t * int) list -> unit;
  mutable s_missing : int;
  mutable s_rows : (Key.t * Value.t * int) list;
}

type snapshot_source = {
  snap_read : Key.t -> (Value.t * int) option;
  snap_scan : table:string -> (Key.t * Value.t * int) list;
}

type t = {
  runtime : Runtime.t;
  config : Config.t;
  id : int;
  dc : int;
  replicas : Key.t -> int list;
  master_of : Key.t -> int;
  local_nodes : int list;  (* storage nodes of this app-server's DC *)
  snapshot : snapshot_source option;  (* co-located stores, for `Snapshot reads *)
  txns : (Txn.id, txn_state) Hashtbl.t;
  hints : (Key.t, float) Hashtbl.t;  (** classic-routing hint -> expiry time *)
  reads : (int, read_state) Hashtbl.t;
  scans : (int, scan_state) Hashtbl.t;
  mutable next_rid : int;
  rng : Rng.t;
  obs : Obs.t;
  stream : Ctx.stream;  (* this node's protocol events *)
  txn_submitted : Obs.counter;  (* the per-transaction counters, resolved once *)
  fast_commit : Obs.counter;
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

let hint_active t key =
  match Hashtbl.find_opt t.hints key with
  | Some expiry when now t < expiry -> true
  | Some _ ->
    Hashtbl.remove t.hints key;
    false
  | None -> false

let set_hint t key = Hashtbl.replace t.hints key (now t +. hint_ttl)

let route_classic t key = t.config.Config.mode = Config.Multi || hint_active t key

(* Fold a broadcast into per-destination Batch messages.  The common
   shapes — an empty or singleton list, or every payload bound for one
   destination — skip the Hashtbl and sorted iteration. *)
let send_batched t pairs =
  match pairs with
  | [] -> ()
  | [ (dst, p) ] -> send t dst p
  | (dst0, p0) :: rest when List.for_all (fun (dst, _) -> dst = dst0) rest ->
    send t dst0 (Messages.Batch (p0 :: List.map snd rest))
  | pairs ->
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

(* Run [each], which hands every message of a broadcast to its argument in
   send order.  Unbatched, the messages go out as they come — no list of
   (destination, payload) pairs is built; batched, they are collected and
   folded per destination. *)
let send_each t each =
  if not t.config.Config.batching then each (send t)
  else begin
    let pairs = ref [] in
    each (fun dst p -> pairs := (dst, p) :: !pairs);
    send_batched t (List.rev !pairs)
  end

(* One payload record to every replica, in list order or reversed: the
   payloads are immutable, so the replicas share it. *)
let rec to_each send_one p = function
  | [] -> ()
  | dst :: rest ->
    send_one dst p;
    to_each send_one p rest

let rec to_each_rev send_one p = function
  | [] -> ()
  | dst :: rest ->
    to_each_rev send_one p rest;
    send_one dst p

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

let propose send_one t (ks : key_state) =
  let w = ks.woption in
  if ks.redirected then
    send_one (t.master_of w.Woption.key) (Messages.Propose { woption = w; route = `Classic })
  else to_each send_one (Messages.Propose { woption = w; route = `Fast }) ks.replicas

let decide t (ts : txn_state) =
  (match ts.timeout with Some h -> Runtime.cancel_timer t.runtime h | None -> ());
  Hashtbl.remove t.txns ts.txn.Txn.id;
  let rejected =
    Key.Map.fold
      (fun _ ks acc ->
        match ks.learned with Some Woption.Rejected -> ks.woption :: acc | Some Woption.Accepted | None -> acc)
      ts.keys []
  in
  let committed = rejected = [] in
  let outcome =
    if committed then Txn.Committed
    else if List.for_all (fun w -> Woption.is_commutative w) rejected then
      Txn.Aborted Txn.Constraint_violation
    else Txn.Aborted Txn.Conflict
  in
  (match outcome with
  | Txn.Committed ->
    let pure_fast =
      Key.Map.for_all
        (fun _ ks -> not (ks.collided || ks.redirected || ks.attempts > 0))
        ts.keys
    in
    if pure_fast && t.config.Config.mode <> Config.Multi then Obs.bump t.fast_commit
    else Obs.incr t.obs "assisted_commit"
  | Txn.Aborted Txn.Constraint_violation -> Obs.incr t.obs "abort_constraint"
  | Txn.Aborted _ -> Obs.incr t.obs "abort_conflict");
  if live t then emit t (Event.Decided { txid = ts.txn.Txn.id; outcome });
  (* Asynchronous Learned/Visibility notification: execute or void every
     option; correctness does not depend on its timing (§3.2.1).  Keys go
     out in descending order, each key's replicas in reverse. *)
  let descending = Key.Map.fold (fun _ ks acc -> ks :: acc) ts.keys [] in
  send_each t (fun send_one ->
      List.iter
        (fun ks ->
          to_each_rev send_one
            (Messages.Visibility
               {
                 txid = ts.txn.Txn.id;
                 key = ks.woption.Woption.key;
                 update = ks.woption.Woption.update;
                 committed;
               })
            ks.replicas)
        descending);
  ts.callback outcome

let learn t (ts : txn_state) (ks : key_state) decision =
  match ks.learned with
  | Some _ -> ()
  | None ->
    ks.learned <- Some decision;
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
      send t target (Messages.Start_recovery { key; woption = Some w }))

let rec position acceptor i = function
  | [] -> -1
  | r :: rest -> if r = acceptor then i else position acceptor (i + 1) rest

(* [find] with its exception rather than [find_opt]: a vote allocates no
   option to find its transaction and key. *)
let on_vote t txid key acceptor decision =
  match Hashtbl.find t.txns txid with
  | exception Not_found -> ()
  | ts -> (
    match Key.Map.find key ts.keys with
    | exception Not_found -> ()
    | ks ->
      let pos = position acceptor 0 ks.replicas in
      if ks.learned = None && pos >= 0 && ks.voted land (1 lsl pos) = 0 then begin
        ks.voted <- ks.voted lor (1 lsl pos);
        (match decision with
        | Woption.Accepted -> ks.acks <- ks.acks + 1
        | Woption.Rejected -> ks.rejects <- ks.rejects + 1);
        let acks = ks.acks and rejects = ks.rejects in
        let qf = Config.fast_quorum t.config in
        if acks >= qf then learn t ts ks Woption.Accepted
        else if rejects >= qf then learn t ts ks Woption.Rejected
        else if Quorum.fast_impossible ~n:(n t) ~acks ~rejects && not ks.collided then begin
          (* Fast Paxos collision: no outcome can reach a fast quorum. *)
          ks.collided <- true;
          ks.collided_at <- Some (now t);
          Obs.incr t.obs "collision";
          if live t then emit t (Event.Collided { txid; key; acks; rejects });
          start_recovery_for t ks
        end
      end)

let on_learned t txid key decision =
  match Hashtbl.find_opt t.txns txid with
  | None -> ()
  | Some ts -> (
    match Key.Map.find_opt key ts.keys with
    | None -> ()
    | Some ks -> learn t ts ks decision)

let on_redirect t txid key master =
  match Hashtbl.find_opt t.txns txid with
  | None -> ()
  | Some ts -> (
    match Key.Map.find_opt key ts.keys with
    | None -> ()
    | Some ks ->
      set_hint t key;
      if ks.learned = None && not ks.redirected then begin
        ks.redirected <- true;
        Obs.incr t.obs "redirect";
        if live t then emit t (Event.Redirected { txid; key; master });
        send t master (Messages.Propose { woption = ks.woption; route = `Classic })
      end)

let rec arm_timeout t (ts : txn_state) =
  let jitter = Rng.float t.rng 100.0 in
  ts.timeout <-
    Some
      (Runtime.set_timer t.runtime ~after:(t.config.Config.learn_timeout +. jitter) (fun () ->
           if Hashtbl.mem t.txns ts.txn.Txn.id then begin
             Key.Map.iter
               (fun _ ks ->
                 if ks.learned = None then begin
                   Obs.incr t.obs "timeout_recovery";
                   start_recovery_for t ks
                 end)
               ts.keys;
             arm_timeout t ts
           end))

let submit t txn callback =
  if Txn.is_read_only txn then
    Runtime.spawn t.runtime (fun () -> callback Txn.Committed)
  else begin
    let options = Woption.of_txn txn ~coordinator:t.id in
    let keys =
      List.fold_left
        (fun m (w : Woption.t) ->
          Key.Map.add w.Woption.key
            { woption = w; replicas = t.replicas w.Woption.key; voted = 0; acks = 0;
              rejects = 0; learned = None; collided = false; collided_at = None;
              redirected = false; attempts = 0 }
            m)
        Key.Map.empty options
    in
    let ts = { txn; callback; keys; undecided = Key.Map.cardinal keys; timeout = None } in
    Hashtbl.replace t.txns txn.Txn.id ts;
    Obs.bump t.txn_submitted;
    if live t then emit t (Event.Submitted txn);
    (* Establish the causal trace context: every Propose (and every message
       it triggers in turn) carries this transaction's id, which both
       runtimes propagate and the bench tracer attributes time to. *)
    Net.with_trace_context (Some txn.Txn.id) (fun () ->
        (* Routes and their spans are settled in key order; the proposals
           then go out in descending key order. *)
        let descending = Key.Map.fold (fun _ ks acc -> route_proposal t ks; ks :: acc) keys [] in
        send_each t (fun send_one -> List.iter (propose send_one t) descending));
    arm_timeout t ts
  end

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

let local_replica t key =
  match List.find_opt (fun r -> Runtime.dc_of t.runtime r = t.dc) (t.replicas key) with
  | Some r -> r
  | None -> (
    match t.replicas key with
    | r :: _ -> r
    | [] ->
      Invariant.violate ~node:t.id ~context:"Coordinator.local_replica"
        "key %s has no replicas" (Key.to_string key))

let new_read t key ~need cb =
  let rid = t.next_rid in
  t.next_rid <- t.next_rid + 1;
  Hashtbl.replace t.reads rid { r_key = key; r_need = need; r_cb = cb; r_replies = []; r_done = false };
  rid

let read_local t key cb =
  Obs.incr t.obs "read_local";
  let rid = new_read t key ~need:1 cb in
  send t (local_replica t key) (Messages.Read_request { rid; key })

let read_majority t key cb =
  Obs.incr t.obs "read_majority";
  let rid = new_read t key ~need:(Config.classic_quorum t.config) cb in
  List.iter (fun r -> send t r (Messages.Read_request { rid; key })) (t.replicas key)

(* Snapshot reads: serve straight from the co-located partition stores,
   skipping the option machinery and the network entirely.  The callback is
   still deferred through the runtime so `Snapshot keeps the same
   callback-asynchrony contract as every other level.  An app-server wired
   without co-located stores (no [snapshot] source) degrades to [`Local]. *)
let read_snapshot t key cb =
  match t.snapshot with
  | Some s ->
    Obs.incr t.obs "snapshot_fast_path";
    Runtime.spawn t.runtime (fun () -> cb (s.snap_read key))
  | None ->
    Obs.incr t.obs "snapshot_fallback";
    read_local t key cb

let read ?(level = `Local) t key cb =
  match level with
  | `Local -> read_local t key cb
  | `Majority -> read_majority t key cb
  | `Snapshot -> read_snapshot t key cb

let on_read_reply t rid acceptor value version exists =
  match Hashtbl.find_opt t.reads rid with
  | None -> ()
  | Some rs ->
    if (not rs.r_done) && not (List.mem_assoc acceptor rs.r_replies) then begin
      rs.r_replies <- (acceptor, (value, version, exists)) :: rs.r_replies;
      if List.length rs.r_replies >= rs.r_need then begin
        rs.r_done <- true;
        Hashtbl.remove t.reads rid;
        let freshest =
          List.fold_left
            (fun best (_, (v, ver, ex)) ->
              match best with
              | Some (_, bver, _) when bver >= ver -> best
              | Some _ | None -> Some (v, ver, ex))
            None rs.r_replies
        in
        match freshest with
        | Some (v, ver, true) -> rs.r_cb (Some (v, ver))
        | Some (_, _, false) | None -> rs.r_cb None
      end
    end


let scan_local t ~table ?order_by ~limit cb =
  match t.local_nodes with
  | [] -> cb []
  | nodes ->
    let rid = t.next_rid in
    t.next_rid <- t.next_rid + 1;
    Hashtbl.replace t.scans rid
      { s_order_by = order_by; s_limit = limit; s_cb = cb; s_missing = List.length nodes;
        s_rows = [] };
    List.iter
      (fun node -> send t node (Messages.Scan_request { rid; table; order_by; limit }))
      nodes

let on_scan_reply t rid rows =
  match Hashtbl.find_opt t.scans rid with
  | None -> ()
  | Some ss ->
    ss.s_rows <- rows @ ss.s_rows;
    ss.s_missing <- ss.s_missing - 1;
    if ss.s_missing = 0 then begin
      Hashtbl.remove t.scans rid;
      ss.s_cb (Store.order_rows ?order_by:ss.s_order_by ~limit:ss.s_limit ss.s_rows)
    end

let scan_snapshot t ~table ?order_by ~limit cb =
  match t.snapshot with
  | Some s ->
    Obs.incr t.obs "snapshot_fast_path";
    Runtime.spawn t.runtime (fun () ->
        cb (Store.order_rows ?order_by ~limit (s.snap_scan ~table)))
  | None ->
    Obs.incr t.obs "snapshot_fallback";
    scan_local t ~table ?order_by ~limit cb

let scan ?(level = `Local) t ~table ?order_by ~limit cb =
  match level with
  | `Local -> scan_local t ~table ?order_by ~limit cb
  | `Snapshot -> scan_snapshot t ~table ?order_by ~limit cb
  | `Majority ->
    (* Discover candidate rows with a local scan, then upgrade each one to a
       majority read so the result reflects the freshest committed state a
       quorum knows.  Rows that turn out deleted at the majority drop out
       (the result can be shorter than [limit]). *)
    scan_local t ~table ?order_by ~limit (fun rows ->
        if rows = [] then cb []
        else begin
          let results = Key.Tbl.create (List.length rows) in
          let remaining = ref (List.length rows) in
          let finish () =
            let upgraded =
              List.filter_map
                (fun (key, _, _) ->
                  match Key.Tbl.find_opt results key with
                  | Some (Some (v, ver)) -> Some (key, v, ver)
                  | Some None | None -> None)
                rows
            in
            cb (Store.order_rows ?order_by ~limit upgraded)
          in
          List.iter
            (fun (key, _, _) ->
              read_majority t key (fun res ->
                  Key.Tbl.replace results key res;
                  decr remaining;
                  if !remaining = 0 then finish ()))
            rows
        end)

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let rec handle t ~src payload =
  match payload with
  | Messages.Batch items -> List.iter (handle t ~src) items
  | Messages.Phase2b_fast { key; txid; decision; acceptor } -> on_vote t txid key acceptor decision
  | Messages.Learned { key; txid; decision } -> on_learned t txid key decision
  | Messages.Redirect { key; txid; master; classic_until = _ } -> on_redirect t txid key master
  | Messages.Read_reply { rid; key = _; value; version; exists } ->
    on_read_reply t rid src value version exists
  | Messages.Scan_reply { rid; rows } -> on_scan_reply t rid rows
  (* Acceptor- and storage-bound traffic; a coordinator is never their
     destination, so receiving one is a routing mistake we ignore. *)
  | Messages.Propose _ | Messages.Phase1a _ | Messages.Phase1b _ | Messages.Phase2a _
  | Messages.Phase2b_master _ | Messages.Visibility _ | Messages.Start_recovery _
  | Messages.Status_query _ | Messages.Status_reply _ | Messages.Catchup_request _
  | Messages.Catchup _ | Messages.Sync_request _ | Messages.Sync_reply _
  | Messages.Read_request _ | Messages.Scan_request _ -> ()
  | _ -> ()

let create ~runtime ~config ~node_id ~replicas ~master_of ?snapshot ?(ctx = Ctx.default ())
    () =
  let obs = ctx.Ctx.obs
  and local_nodes = ctx.Ctx.local_nodes in
  let t =
    {
      runtime;
      config;
      id = node_id;
      dc = Runtime.dc_of runtime node_id;
      replicas;
      master_of;
      local_nodes;
      snapshot;
      txns = Hashtbl.create 256;
      hints = Hashtbl.create 256;
      reads = Hashtbl.create 64;
      scans = Hashtbl.create 16;
      next_rid = 0;
      rng = Rng.split (Runtime.rng runtime);
      obs;
      stream = Ctx.stream ctx runtime ~node:node_id;
      txn_submitted = Obs.counter obs "txn_submitted";
      fast_commit = Obs.counter obs "fast_commit";
    }
  in
  Runtime.register runtime node_id (fun ~src payload -> handle t ~src payload);
  t

let inflight t = Hashtbl.length t.txns

let obs t = t.obs
