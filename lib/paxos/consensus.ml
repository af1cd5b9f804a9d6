module Net = Mdcc_sim.Network
module Engine = Mdcc_sim.Engine
module Rng = Mdcc_util.Rng
module Invariant = Mdcc_util.Invariant
module Obs = Mdcc_obs.Obs

type Net.payload +=
  | Cp_fast of { pid : int; value : string }
  | Cp_fast_reply of { pid : int; ballot : Ballot.t; value : string option }
  | Cp_phase1a of { pid : int; ballot : Ballot.t }
  | Cp_phase1b of {
      pid : int;
      ballot : Ballot.t;
      ok : bool;
      promised : Ballot.t;
      vote : (Ballot.t * string) option;
    }
  | Cp_phase2a of { pid : int; ballot : Ballot.t; value : string }
  | Cp_phase2b of { pid : int; ballot : Ballot.t; ok : bool }

type astate = {
  mutable promised : Ballot.t;
  mutable vballot : Ballot.t option;
  mutable vvalue : string option;
}

type phase = Fast_wait | P1_wait | P2_wait | Done

type pstate = {
  pid : int;
  from : int;
  my_value : string;
  callback : string -> unit;
  mutable phase : phase;
  mutable ballot : Ballot.t;
  mutable fast_replies : (int * (Ballot.t * string) option) list;
  mutable p1_replies : (int * (Ballot.t * string) option) list;
  mutable p2_acks : int list;
  mutable p2_value : string;
  mutable attempts : int;
}

type t = {
  net : Net.t;
  engine : Engine.t;
  acceptors : int list;
  states : (int, astate) Hashtbl.t;  (* acceptor node -> state *)
  pending : (int, pstate) Hashtbl.t;  (* pid -> proposal *)
  mutable next_pid : int;
  mutable highest_number : int;
  mutable chosen : string list;
  rng : Rng.t;
  obs : Obs.t;
}

(* Standalone consensus instances have no transaction; spans are keyed by a
   synthetic "cp-<pid>" id so vote/learn events still form a tree. *)
let span_id pid = Printf.sprintf "cp-%d" pid

let n t = List.length t.acceptors

let qc t = Quorum.classic_size ~n:(n t)

let qf t = Quorum.fast_size ~n:(n t)

let astate t node =
  match Hashtbl.find_opt t.states node with
  | Some s -> s
  | None ->
    let s = { promised = Ballot.initial_fast; vballot = None; vvalue = None } in
    Hashtbl.replace t.states node s;
    s

(* ------------------------------------------------------------------ *)
(* Acceptor                                                             *)
(* ------------------------------------------------------------------ *)

let span t ~pid ~node ~name ~detail =
  match Obs.spans t.obs with
  | Some sp ->
    Mdcc_obs.Span.event sp ~txid:(span_id pid) ~at:(Engine.now t.engine) ~node ~name ~detail ()
  | None -> ()

let acceptor_handle t node ~src payload =
  let s = astate t node in
  let reply p = Net.send t.net ~src:node ~dst:src p in
  match payload with
  | Cp_fast { pid; value } ->
    (* Accept the first fast value while still on the implicit fast ballot. *)
    let accepted = Ballot.is_fast s.promised && s.vvalue = None in
    if accepted then begin
      s.vballot <- Some Ballot.initial_fast;
      s.vvalue <- Some value
    end;
    Obs.incr t.obs (if accepted then "cp_fast_accept" else "cp_fast_reject");
    span t ~pid ~node ~name:"vote" ~detail:(if accepted then "fast acc" else "fast rej");
    reply (Cp_fast_reply { pid; ballot = Option.value s.vballot ~default:s.promised; value = s.vvalue })
  | Cp_phase1a { pid; ballot } ->
    let ok = Ballot.compare ballot s.promised > 0 in
    if ok then s.promised <- ballot;
    if ok then Obs.incr t.obs "cp_phase1_promise";
    let vote =
      match (s.vballot, s.vvalue) with Some b, Some v -> Some (b, v) | _ -> None
    in
    reply (Cp_phase1b { pid; ballot; ok; promised = s.promised; vote })
  | Cp_phase2a { pid; ballot; value } ->
    let ok = Ballot.compare ballot s.promised >= 0 in
    if ok then begin
      s.promised <- ballot;
      s.vballot <- Some ballot;
      s.vvalue <- Some value
    end;
    if ok then Obs.incr t.obs "cp_phase2_vote";
    span t ~pid ~node ~name:"vote" ~detail:(if ok then "classic acc" else "classic rej");
    reply (Cp_phase2b { pid; ballot; ok })
  (* Proposer-bound replies; an acceptor never consumes them. *)
  | Cp_fast_reply _ | Cp_phase1b _ | Cp_phase2b _ -> ()
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Proposer                                                             *)
(* ------------------------------------------------------------------ *)

let finish t p value =
  if p.phase <> Done then begin
    p.phase <- Done;
    t.chosen <- value :: t.chosen;
    Obs.incr t.obs "cp_decided";
    span t ~pid:p.pid ~node:p.from ~name:"learn" ~detail:"decided";
    p.callback value
  end

(* Exponential backoff so dueling proposers leave each other a window of
   about a wide-area Phase1+Phase2 (Lamport's liveness argument: progress
   needs a single proposer to run unimpeded for one classic round). *)
let backoff_of t p =
  let shift = Stdlib.min p.attempts 6 in
  let base = 150.0 *. Float.of_int (1 lsl shift) in
  base *. (0.5 +. Rng.float t.rng 1.0)

let rec start_classic t p =
  if p.phase <> Done then begin
    Obs.incr t.obs "cp_classic_round";
    span t ~pid:p.pid ~node:p.from ~name:"propose" ~detail:"classic";
    p.attempts <- p.attempts + 1;
    t.highest_number <- t.highest_number + 1;
    p.ballot <- Ballot.classic ~number:t.highest_number ~proposer:p.from;
    p.phase <- P1_wait;
    p.p1_replies <- [];
    p.p2_acks <- [];
    List.iter
      (fun a -> Net.send t.net ~src:p.from ~dst:a (Cp_phase1a { pid = p.pid; ballot = p.ballot }))
      t.acceptors;
    watch t p
  end

(* Re-drive a stalled proposal (message loss). *)
and watch t p =
  let deadline = 1_500.0 *. Float.of_int (1 + p.attempts) +. Rng.float t.rng 300.0 in
  let seen = p.attempts in
  ignore
    (Engine.schedule t.engine ~after:deadline (fun () ->
         (* Only re-drive if no newer ballot was started since. *)
         if p.phase <> Done && p.attempts = seen then start_classic t p))

let on_fast_reply t p ~src ballot value =
  if p.phase = Fast_wait && not (List.mem_assoc src p.fast_replies) then begin
    let vote = match value with Some v -> Some (ballot, v) | None -> None in
    p.fast_replies <- (src, vote) :: p.fast_replies;
    (* Count supporters per value at the fast ballot. *)
    let support v =
      List.length
        (List.filter
           (fun (_, vote) ->
             match vote with Some (b, v') -> Ballot.is_fast b && String.equal v v' | None -> false)
           p.fast_replies)
    in
    let values =
      List.filter_map (fun (_, vote) -> Option.map snd vote) p.fast_replies
      |> List.sort_uniq String.compare
    in
    match List.find_opt (fun v -> support v >= qf t) values with
    | Some v -> finish t p v
    | None ->
      let replies = List.length p.fast_replies in
      let best = List.fold_left (fun acc v -> Stdlib.max acc (support v)) 0 values in
      (* Collision: no value can reach a fast quorum any more. *)
      if best + (n t - replies) < qf t then begin
        Obs.incr t.obs "cp_collision";
        span t ~pid:p.pid ~node:p.from ~name:"collision" ~detail:"fast quorum impossible";
        start_classic t p
      end
  end

let on_phase1b t p ~src ballot ok promised vote =
  match p.phase with
  | P1_wait when Ballot.equal ballot p.ballot ->
    if not ok then begin
      t.highest_number <- Stdlib.max t.highest_number promised.Ballot.number;
      let seen = p.attempts in
      ignore
        (Engine.schedule t.engine ~after:(backoff_of t p) (fun () ->
             if p.attempts = seen then start_classic t p))
    end
    else if not (List.mem_assoc src p.p1_replies) then begin
      p.p1_replies <- (src, vote) :: p.p1_replies;
      if List.length p.p1_replies >= qc t then begin
        let votes =
          List.filter_map
            (fun (a, vote) ->
              Option.map (fun (b, v) -> { Quorum.acceptor = a; ballot = b; value = v }) vote)
            p.p1_replies
        in
        let value =
          match
            Quorum.safe_value ~n:(n t) ~quorum_size:(List.length p.p1_replies)
              ~equal:String.equal votes
          with
          | Some v -> v
          | None -> p.my_value
        in
        p.phase <- P2_wait;
        p.p2_value <- value;
        List.iter
          (fun a ->
            Net.send t.net ~src:p.from ~dst:a
              (Cp_phase2a { pid = p.pid; ballot = p.ballot; value }))
          t.acceptors
      end
    end
  | P1_wait | Fast_wait | P2_wait | Done -> ()

let on_phase2b t p ~src ballot ok =
  match p.phase with
  | P2_wait when Ballot.equal ballot p.ballot ->
    if not ok then begin
      let seen = p.attempts in
      ignore
        (Engine.schedule t.engine ~after:(backoff_of t p) (fun () ->
             if p.attempts = seen then start_classic t p))
    end
    else begin
      if not (List.mem src p.p2_acks) then p.p2_acks <- src :: p.p2_acks;
      if List.length p.p2_acks >= qc t then finish t p p.p2_value
    end
  | P2_wait | P1_wait | Fast_wait | Done -> ()

let proposer_handle t ~src payload =
  match payload with
  | Cp_fast_reply { pid; ballot; value } -> (
    match Hashtbl.find_opt t.pending pid with
    | Some p -> on_fast_reply t p ~src ballot value
    | None -> ())
  | Cp_phase1b { pid; ballot; ok; promised; vote } -> (
    match Hashtbl.find_opt t.pending pid with
    | Some p -> on_phase1b t p ~src ballot ok promised vote
    | None -> ())
  | Cp_phase2b { pid; ballot; ok } -> (
    match Hashtbl.find_opt t.pending pid with
    | Some p -> on_phase2b t p ~src ballot ok
    | None -> ())
  (* Acceptor-bound requests; a proposer never consumes them. *)
  | Cp_fast _ | Cp_phase1a _ | Cp_phase2a _ -> ()
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* API                                                                  *)
(* ------------------------------------------------------------------ *)

let create ~net ~acceptors ?(obs = Obs.ambient ()) () =
  if List.length acceptors < 3 then
    Invariant.violate ~context:"Consensus.create" "need >= 3 acceptors, got %d"
      (List.length acceptors);
  let engine = Net.engine net in
  let t =
    {
      net;
      engine;
      acceptors;
      states = Hashtbl.create 8;
      pending = Hashtbl.create 8;
      next_pid = 0;
      highest_number = 0;
      chosen = [];
      rng = Rng.split (Engine.rng engine);
      obs;
    }
  in
  List.iter
    (fun node -> Net.register net node (fun ~src payload -> acceptor_handle t node ~src payload))
    acceptors;
  t

let new_proposal t ~from value callback phase =
  t.next_pid <- t.next_pid + 1;
  let p =
    {
      pid = t.next_pid;
      from;
      my_value = value;
      callback;
      phase;
      ballot = Ballot.initial_fast;
      fast_replies = [];
      p1_replies = [];
      p2_acks = [];
      p2_value = value;
      attempts = 0;
    }
  in
  Hashtbl.replace t.pending p.pid p;
  (* The proposer node must see the replies. *)
  Net.register t.net from (fun ~src payload -> proposer_handle t ~src payload);
  p

let propose_fast t ~from value callback =
  let p = new_proposal t ~from value callback Fast_wait in
  span t ~pid:p.pid ~node:from ~name:"propose" ~detail:"fast";
  List.iter
    (fun a -> Net.send t.net ~src:from ~dst:a (Cp_fast { pid = p.pid; value }))
    t.acceptors;
  watch t p

let propose_classic t ~from value callback =
  let p = new_proposal t ~from value callback P1_wait in
  start_classic t p

let decided t =
  let bindings = Mdcc_util.Table.sorted_bindings ~compare:Int.compare t.states in
  let holders v ~fast_only =
    List.fold_left
      (fun acc (_, s) ->
        match (s.vballot, s.vvalue) with
        | Some b, Some v' when String.equal v v' && ((not fast_only) || Ballot.is_fast b) ->
          acc + 1
        | _ -> acc)
      0 bindings
  in
  let values =
    List.filter_map (fun (_, s) -> s.vvalue) bindings |> List.sort_uniq String.compare
  in
  List.find_opt (fun v -> holders v ~fast_only:true >= qf t || holders v ~fast_only:false >= qc t)
    values

let chosen_values t = t.chosen
