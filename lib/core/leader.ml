open Mdcc_storage
open Mdcc_paxos

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

(* One Phase 1; after it resolves, its leader keeps it until the next one,
   for the driver to read who asked. *)
type attempt = {
  mutable p_ballot : Ballot.t;
  mutable p_promises : (int * Messages.promise) list;  (* (acceptor, its Phase 1b promise) *)
  mutable p_extras : Woption.t list;
  mutable p_notify : int list;
  mutable p_running : bool;
}

type t = {
  mutable led : Ballot.t;  (* a fast ballot when it leads none *)
  mutable highest : int;
  mutable rounds : round list;
  mutable queue : queued list;
  mutable phase1 : attempt;
  mutable last : round;  (* the round the latest Round or Learned named *)
  mutable handed : queued list;
      (* options handed over, each with the askers only this node can
         tell: the new leader's Learned comes back here *)
}

type verdict = Pending | Outcome of bool | Round of Acceptor.reject_reason option | Learned
  | Phase1 | Redrive | Phase1a | Nacked | Resolved of Acceptor.resolution
  | Handover of { leader : int; released : Woption.t list }

(* The placeholders a new leader holds before its first round and its
   first Phase 1: never in a list, never running, so no step changes
   them. *)
let nobody = { Woption.txid = ""; key = Key.make ~table:"" ~id:""; update = Update.Delta [];
               write_set = []; coordinator = -1 }

let none = { r_opt = nobody; r_dec = Woption.Rejected; r_ballot = Ballot.initial_fast;
             r_votes = Quorum.Tally.empty; r_notify = [] }

let idle =
  { p_ballot = Ballot.initial_fast; p_promises = []; p_extras = []; p_notify = [];
    p_running = false }

let create config ~self ~master_of key =
  let led =
    if config.Config.mode = Config.Multi && master_of key = self then
      Ballot.classic ~number:1 ~proposer:self
    else Ballot.initial_fast
  in
  { led; highest = 1; rounds = []; queue = []; phase1 = idle; last = none; handed = [] }

let leads t = not (Ballot.is_fast t.led)
let running t = t.phase1.p_running
let ballot t = if running t then t.phase1.p_ballot else t.led
let option t = t.last.r_opt
let decision t = t.last.r_dec
let notify t = t.last.r_notify
let attempt t = t.phase1
let extras a = a.p_extras
let waiting a = a.p_notify

(* [a] with each member of [b] it lacks consed onto its front, one at a
   time in [b]'s order. *)
let union a b = List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) a b

(* The round running for [txid]; raises [Not_found].  This and the
   scanners below are top-level so that finding, joining or dropping a
   round allocates no closure and no option. *)
let rec find_round txid = function
  | [] -> raise_notrace Not_found
  | r :: rest -> if String.equal r.r_opt.Woption.txid txid then r else find_round txid rest

let rec find_queued txid = function
  | [] -> raise_notrace Not_found
  | q :: rest -> if String.equal q.q_opt.Woption.txid txid then q else find_queued txid rest

(* The list without [r]: only the cells before it are copied. *)
let rec without r = function [] -> [] | r' :: rest -> if r' == r then rest else r' :: without r rest

(* The askers of [txid]'s handed-over option, who stop waiting here; []
   when none do. *)
let forward t txid =
  match t.handed with
  | [] -> []
  | handed -> (
    match find_queued txid handed with
    | q ->
      t.handed <- without q handed;
      q.q_notify
    | exception Not_found -> [])

(* Each reason's verdict is a literal, so starting a round allocates
   only the round. *)
let round_verdict = function
  | None -> Round None
  | Some Acceptor.Version_validation -> Round (Some Acceptor.Version_validation)
  | Some Acceptor.Outstanding_option -> Round (Some Acceptor.Outstanding_option)
  | Some Acceptor.Demarcation -> Round (Some Acceptor.Demarcation)

(* Stable-master classic round: validate with escrow against the
   record's own state (its pending votes mirror every classic option in
   flight). *)
let start_round t node rs (w : Woption.t) ~notify =
  let reason = Acceptor.escrow node rs w.Woption.update in
  let r = { r_opt = w; r_dec = Acceptor.decision_of reason; r_ballot = t.led;
            r_votes = Quorum.Tally.empty; r_notify = notify } in
  t.rounds <- r :: t.rounds;
  t.last <- r;
  round_verdict reason

(* Physical options serialize; commutative ones pipeline. *)
let can_run_now t (w : Woption.t) =
  (not (running t))
  && (t.rounds = []
     || (Update.is_commutative w.Woption.update
        && List.for_all (fun r -> Update.is_commutative r.r_opt.Woption.update) t.rounds))

(* Join the running Phase 1, or start one above every ballot seen, with
   the running rounds' and then the queue's options folded in. *)
let start_phase1 t ~self ~extras ~notify =
  let a = t.phase1 in
  if a.p_running then begin
    List.iter
      (fun w ->
        if not (List.exists (fun o -> String.equal o.Woption.txid w.Woption.txid) a.p_extras)
        then a.p_extras <- w :: a.p_extras)
      extras;
    a.p_notify <- union a.p_notify notify;
    Pending
  end
  else begin
    t.led <- Ballot.initial_fast;
    let extras =
      extras @ List.map (fun r -> r.r_opt) t.rounds @ List.map (fun q -> q.q_opt) t.queue
    in
    let notify = union notify (List.concat_map (fun r -> r.r_notify) t.rounds) in
    let notify = union notify (List.concat_map (fun q -> q.q_notify) t.queue) in
    t.rounds <- [];
    t.queue <- [];
    t.highest <- t.highest + 1;
    t.phase1 <-
      { p_ballot = Ballot.classic ~number:t.highest ~proposer:self; p_promises = [];
        p_extras = extras; p_notify = notify; p_running = true };
    Phase1
  end

let propose t node rs store ~self (w : Woption.t) ~notify =
  let txid = w.Woption.txid in
  (* Asked again for an option it handed over, this node tells that
     option's askers itself. *)
  let notify = match forward t txid with [] -> notify | askers -> union notify askers in
  match Acceptor.outcome node rs txid with
  | Some true -> Outcome true
  | Some false -> Outcome false
  | None -> (
    match find_round txid t.rounds with
    | r ->
      r.r_notify <- union r.r_notify notify;
      Pending
    | exception Not_found ->
      (* A local vote for the option, fast or from a round no longer
         tracked, is not a decision (its round may have died short of a
         quorum), and a fresh round against this record would have the
         option conflict with its own vote: only Phase 1 classifies it. *)
      if running t || Acceptor.mem_pending rs txid then start_phase1 t ~self ~extras:[ w ] ~notify
      else
        let row = Store.ensure store w.Woption.key in
        if not (leads t && Acceptor.in_classic_era rs ~version:row.Store.version) then
          start_phase1 t ~self ~extras:[ w ] ~notify
        else if t.queue = [] && can_run_now t w then start_round t node rs w ~notify
        else begin
          (* Queued twice, an option would run two rounds at one ballot. *)
          (match find_queued txid t.queue with
          | q -> q.q_notify <- union q.q_notify notify
          | exception Not_found -> t.queue <- t.queue @ [ { q_opt = w; q_notify = notify } ]);
          Pending
        end)

let dequeue t node rs =
  t.last <- none;
  match t.queue with
  | q :: rest when leads t && can_run_now t q.q_opt ->
    t.queue <- rest;
    start_round t node rs q.q_opt ~notify:q.q_notify
  | _ :: _ | [] -> Pending

(* Let go of every round and the queue for [successor] to decide:
   the rounds' options, then the queue's, as [start_phase1] folds them.
   The option's coordinator hears [successor]'s decision, and so does this
   node, which asks for it; any other asker is kept to be told. *)
let handover t ~self (successor : Ballot.t) =
  t.highest <- Stdlib.max t.highest successor.Ballot.number;
  t.led <- Ballot.initial_fast;
  let released =
    List.map (fun r -> { q_opt = r.r_opt; q_notify = r.r_notify }) t.rounds @ t.queue
  in
  t.rounds <- [];
  t.queue <- [];
  List.iter
    (fun q ->
      let coordinator = q.q_opt.Woption.coordinator in
      match List.filter (fun n -> n <> self && n <> coordinator) q.q_notify with
      | [] -> ()
      | askers -> t.handed <- { q with q_notify = askers } :: t.handed)
    released;
  Handover
    { leader = successor.Ballot.proposer; released = List.map (fun q -> q.q_opt) released }

(* A refusal at the round's own ballot is this node's own promise: an
   acceptor refused a Phase 2a of an older round after this node's next
   Phase 1, which re-opened the option's round at that ballot.  The
   round, then the other rounds and the queue fold into a new Phase 1. *)
let step_down t ~self r (ballot : Ballot.t) =
  t.highest <- Stdlib.max t.highest ballot.Ballot.number;
  t.led <- Ballot.initial_fast;
  t.rounds <- without r t.rounds;
  start_phase1 t ~self ~extras:[ r.r_opt ] ~notify:r.r_notify

let ack t ~self ~quorum ~replicas ~src txid ballot ~ok =
  match find_round txid t.rounds with
  | exception Not_found -> Pending
  | r ->
    if not ok then
      (* A refusal carries the acceptor's own promise: another node's
         higher ballot leads the record now. *)
      if Ballot.compare ballot r.r_ballot > 0 && ballot.Ballot.proposer <> self then
        handover t ~self ballot
      else if Ballot.equal r.r_ballot ballot then step_down t ~self r ballot
      else Pending
    else if not (Ballot.equal r.r_ballot ballot) then Pending
    else begin
      let votes = Quorum.Tally.vote r.r_votes ~pos:(Quorum.position src replicas) ~ok:true in
      if votes = r.r_votes then Pending
      else begin
        r.r_votes <- votes;
        if Quorum.Tally.acks votes < quorum then Pending
        else begin
          t.rounds <- without r t.rounds;
          t.last <- r;
          Learned
        end
      end
    end

(* Become the stable master and open a round per undecided option, in
   re-proposal order.  The attempt lets go of what only [Acceptor.resolve]
   reads. *)
let resolve t node rs a ~replicas =
  let v = Acceptor.resolve node rs ~promises:a.p_promises ~extras:a.p_extras ~replicas in
  a.p_running <- false;
  a.p_promises <- [];
  a.p_extras <- [];
  t.led <- a.p_ballot;
  List.iter
    (fun (w, d) ->
      t.rounds <-
        { r_opt = w; r_dec = d; r_ballot = a.p_ballot; r_votes = Quorum.Tally.empty;
          r_notify = a.p_notify } :: t.rounds)
    v.Acceptor.outcomes;
  Resolved v

(* Move the running Phase 1 to the next ballot number above [number]. *)
let next_ballot t a ~self number =
  t.highest <- number + 1;
  a.p_ballot <- Ballot.classic ~number:t.highest ~proposer:self;
  a.p_promises <- []

let promise t node rs ~self ~quorum ~replicas ~src ballot ~ok ~promised p =
  let a = t.phase1 in
  if not (a.p_running && Ballot.equal ballot a.p_ballot) then Pending
  else if ok then begin
    if not (List.mem_assoc src a.p_promises) then a.p_promises <- (src, p) :: a.p_promises;
    if List.length a.p_promises >= quorum then resolve t node rs a ~replicas else Pending
  end
  else begin
    next_ballot t a ~self (Stdlib.max t.highest promised.Ballot.number);
    Nacked
  end

let redrive t ~self a =
  if a == t.phase1 && a.p_running then begin
    next_ballot t a ~self t.highest;
    Redrive
  end
  else Pending

let backoff t a ballot =
  if a == t.phase1 && a.p_running && Ballot.equal a.p_ballot ballot then Phase1a else Pending
