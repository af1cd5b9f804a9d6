module Net = Mdcc_sim.Network
module Engine = Mdcc_sim.Engine
module Key = Mdcc_storage.Key

(* The epoch E, in ms: the longest a far replica's Phase 2a waits for
   company, and how close to the slowest near replica's round trip a
   replica must be to hear it at once.  Picked from the curve measured on
   the hotspot benchmark (`bench_e2e measure --workload hotspot --seconds
   20 --seed 1`; messages per transaction, 37.62 with every Phase 2a sent
   at once): 10 ms 35.07, 20 ms 34.06, 40 ms 33.30, 80 ms 34.36.  Beyond
   40 ms the second role wins: more replicas fall within E of the near
   set and are sent at once.  The commit medians stay within 0.5 % at
   every point, because a far replica only decides a round when a near
   one is slow or dead, and then the round waits at most E longer. *)
let epoch_ms = 40.0

(* A probe unanswered for this long was lost, or its peer is down: the
   next send replaces it, and its age becomes the peer's estimate.  Three
   times the slowest round trip of the five-region topology (290 ms). *)
let probe_limit_ms = 1_000.0

(* What an unused option slot holds, and an unused payload slot: values
   nothing sends, so a slot keeps no real message alive. *)
let no_option =
  { Woption.txid = ""; key = Key.make ~table:"" ~id:""; update = Mdcc_storage.Update.Delta [];
    write_set = []; coordinator = -1 }

let no_payload = Messages.Catchup_request { key = no_option.Woption.key }

type t = {
  runtime : Runtime.t;
  outbox : Outbox.t;
  now : Engine.stamp;  (* the node's clock cell, read once per plan, answer or flush *)
  (* Per peer, indexed by node id and grown on demand: *)
  mutable rtt : float array;  (* the last measured round trip; < 0 while unknown *)
  mutable probe_at : float array;  (* when the outstanding probe left; < 0 if none *)
  mutable probe : Woption.t array;  (* the option whose Phase 2a the probe waits on *)
  (* The held sends, in the order they were held: *)
  mutable held_dsts : int array;
  mutable held_opts : Woption.t array;
  mutable held_payloads : Net.payload array;
  mutable held : int;
  mutable alarm : Runtime.alarm option;  (* built by the first hold; armed while [held > 0] *)
  mutable keys : float array;  (* [plan]'s working space: each position's ranking key *)
}

let create runtime outbox ~now =
  {
    runtime;
    outbox;
    now;
    rtt = [||];
    probe_at = [||];
    probe = [||];
    held_dsts = [||];
    held_opts = [||];
    held_payloads = [||];
    held = 0;
    alarm = None;
    keys = [||];
  }

(* [a] copied into a new array of [cap] slots, the rest [fill]. *)
let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Grow the per-peer arrays to cover node ids below [cap]. *)
let cover t cap =
  if cap > Array.length t.rtt then begin
    t.rtt <- extend t.rtt cap (-1.0);
    t.probe_at <- extend t.probe_at cap (-1.0);
    t.probe <- extend t.probe cap no_option
  end

(* [w]'s Phase 2a leaves for [peer] now, a replica {!plan} has covered.
   It becomes the peer's probe unless one is outstanding; one outstanding
   past [probe_limit_ms] is replaced, and its age raises the peer's
   estimate. *)
let probe t peer w =
  let now = t.now.Engine.time and at = t.probe_at.(peer) in
  if at < 0.0 || now -. at > probe_limit_ms then begin
    if at >= 0.0 && now -. at > t.rtt.(peer) then t.rtt.(peer) <- now -. at;
    t.probe_at.(peer) <- now;
    t.probe.(peer) <- w
  end

let rec release t i n =
  if i < n then begin
    let dst = t.held_dsts.(i) and payload = t.held_payloads.(i) in
    probe t dst t.held_opts.(i);
    t.held_opts.(i) <- no_option;
    t.held_payloads.(i) <- no_payload;
    Outbox.send t.outbox dst payload;
    release t (i + 1) n
  end

(* The epoch ends: everything held leaves in one outbox step, so each
   destination receives one Batch. *)
let flush t =
  let n = t.held in
  t.held <- 0;
  Runtime.now_into t.runtime t.now;
  Outbox.enter t.outbox;
  release t 0 n;
  Outbox.leave t.outbox

(* Fill [keys] with each replica's ranking key, from position [i] on: its
   estimate, raised to the age of its unanswered probe; [infinity] while
   it has no estimate.  This node's own position gets [nan]. *)
let rec fill t self i = function
  | [] -> ()
  | peer :: rest ->
    let now = t.now.Engine.time in
    t.keys.(i) <-
      (if peer = self then Float.nan
       else if t.rtt.(peer) < 0.0 then Float.infinity
       else if t.probe_at.(peer) >= 0.0 && now -. t.probe_at.(peer) > t.rtt.(peer) then
         now -. t.probe_at.(peer)
       else t.rtt.(peer));
    fill t self (i + 1) rest

(* How many other replicas rank ahead of position [i], from position [j]
   on: a lower key, or an equal key at an earlier position.  [nan] (this
   node) never does. *)
let rec rank t i j n acc =
  if j = n then acc
  else
    let k = t.keys.(j) and ki = t.keys.(i) in
    rank t i (j + 1) n (if j <> i && (k < ki || (k = ki && j < i)) then acc + 1 else acc)

(* Whether position [i]'s key is within [epoch_ms] of the key of some
   position in [near], from position [j] on. *)
let rec close_to t i near j n =
  j < n
  && ((near land (1 lsl j) <> 0 && t.keys.(i) <= t.keys.(j) +. epoch_ms)
     || close_to t i near (j + 1) n)

let rec highest acc = function [] -> acc | peer :: rest -> highest (Stdlib.max acc peer) rest

let plan t ~self ~quorum replicas =
  Runtime.now_into t.runtime t.now;
  let n = List.length replicas in
  if n > Array.length t.keys then t.keys <- Array.make n 0.0;
  cover t (highest 0 replicas + 1);
  fill t self 0 replicas;
  let near = ref 0 in
  for i = 0 to n - 1 do
    (* A [nan] key, this node's, equals nothing. *)
    if t.keys.(i) = t.keys.(i) && rank t i 0 n 0 < quorum - 1 then near := !near lor (1 lsl i)
  done;
  let mask = ref !near in
  for i = 0 to n - 1 do
    if close_to t i !near 0 n then mask := !mask lor (1 lsl i)
  done;
  !mask

let hold t dst w payload =
  if t.held = 0 then begin
    let alarm =
      match t.alarm with
      | Some a -> a
      | None ->
        let a = Runtime.alarm t.runtime (fun () -> flush t) in
        t.alarm <- Some a;
        a
    in
    Runtime.arm alarm ~after:epoch_ms
  end;
  if t.held = Array.length t.held_dsts then begin
    let cap = Stdlib.max 4 (2 * t.held) in
    t.held_dsts <- extend t.held_dsts cap 0;
    t.held_opts <- extend t.held_opts cap no_option;
    t.held_payloads <- extend t.held_payloads cap no_payload
  end;
  t.held_dsts.(t.held) <- dst;
  t.held_opts.(t.held) <- w;
  t.held_payloads.(t.held) <- payload;
  t.held <- t.held + 1

let send t ~mask ~pos dst w payload =
  if mask land (1 lsl pos) <> 0 then begin
    probe t dst w;
    Outbox.send t.outbox dst payload
  end
  else hold t dst w payload

let answered t ~src key txid =
  if src < Array.length t.probe_at && t.probe_at.(src) >= 0.0 then begin
    let w = t.probe.(src) in
    if Key.equal w.Woption.key key && String.equal w.Woption.txid txid then begin
      Runtime.now_into t.runtime t.now;
      t.rtt.(src) <- t.now.Engine.time -. t.probe_at.(src);
      t.probe_at.(src) <- -1.0;
      t.probe.(src) <- no_option
    end
  end
