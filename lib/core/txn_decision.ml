open Mdcc_storage
open Mdcc_paxos

type slot = {
  replicas : int list;  (* the key's replica group; a reply counts by its position here *)
  mutable option : Woption.t;
  mutable reported : bool;  (* [option] was proposed or reported, not the placeholder *)
  mutable votes : Quorum.tally;  (* the replies counted so far *)
  mutable learned : Woption.decision option;
  mutable escalations : int;
  mutable redirected : bool;  (* the option went to its master for a classic round *)
}

type t = slot array

type verdict = Pending | Escalate | Collided | Decided of Txn.outcome

let slot ~replicas (w : Woption.t) reported =
  { replicas = replicas w.Woption.key; option = w; reported; votes = Quorum.Tally.empty;
    learned = None; escalations = 0; redirected = false }

let option_of (txn : Txn.t) write_set coordinator (key, update) =
  { Woption.txid = txn.Txn.id; key; update; write_set; coordinator }

let rec fill_from ~replicas txn write_set coordinator slots i = function
  | [] -> ()
  | u :: rest ->
    slots.(i) <- slot ~replicas (option_of txn write_set coordinator u) true;
    fill_from ~replicas txn write_set coordinator slots (i + 1) rest

(* The slots in ascending key order, by an insertion sort rather than
   [Array.sort], which allocates: write-sets are a handful of keys, and
   [Txn.make] has already ruled out duplicates. *)
let of_txn ~replicas ~coordinator (txn : Txn.t) =
  let write_set = Txn.keys txn in
  match txn.Txn.updates with
  | [] -> [||]
  | first :: rest ->
    let slots =
      Array.make (List.length txn.Txn.updates)
        (slot ~replicas (option_of txn write_set coordinator first) true)
    in
    fill_from ~replicas txn write_set coordinator slots 1 rest;
    for i = 1 to Array.length slots - 1 do
      let s = slots.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && Key.compare slots.(!j).option.Woption.key s.option.Woption.key > 0 do
        slots.(!j + 1) <- slots.(!j);
        decr j
      done;
      slots.(!j + 1) <- s
    done;
    slots

(* The update of an option no replica has reported. *)
let unknown_update = Update.Physical { vread = -1; value = Value.empty }

let of_option ~replicas ~self (w : Woption.t) =
  Array.of_list
    (List.map
       (fun key ->
         if Key.equal key w.Woption.key then slot ~replicas w true
         else
           slot ~replicas
             { w with Woption.key; update = unknown_update; coordinator = self }
             false)
       w.Woption.write_set)

let length = Array.length

let txid (d : t) = d.(0).option.Woption.txid

let rec find_from (d : t) key i =
  if i = Array.length d then -1
  else if Key.equal d.(i).option.Woption.key key then i
  else find_from d key (i + 1)

let find d key = find_from d key 0

let option (d : t) i = d.(i).option

let replicas (d : t) i = d.(i).replicas

let learned (d : t) i = d.(i).learned

let votes (d : t) i = d.(i).votes

let redirected (d : t) i = d.(i).redirected

let redirect (d : t) i =
  let s = d.(i) in
  s.learned = None && (not s.redirected)
  && begin
    s.redirected <- true;
    true
  end

(* Top-level recursion rather than [Array.for_all], whose loop is a
   closure: the vote and decide paths allocate nothing. *)
let rec all (d : t) p i = i < 0 || (p d.(i) && all d p (i - 1))

let fast_path d = all d (fun s -> (not s.redirected) && s.escalations = 0) (Array.length d - 1)

let target (d : t) i ~master ~rotate =
  let s = d.(i) in
  if s.escalations <= 1 || not rotate then master
  else
    let order = master :: List.filter (fun r -> r <> master) s.replicas in
    List.nth order ((s.escalations - 1) mod List.length order)

let accepted s =
  match s.learned with Some Woption.Accepted -> true | Some Woption.Rejected | None -> false

let accepted_or_commutes s = accepted s || Woption.is_commutative s.option

(* The learned-all rule: Pending while a key is open, else committed iff
   every key accepted.  An abort whose rejected options all commute is a
   constraint violation, else a conflict.  Each verdict is a literal, so
   none is allocated. *)
let decide (d : t) =
  let last = Array.length d - 1 in
  if not (all d (fun s -> s.learned <> None) last) then Pending
  else if all d accepted last then Decided Txn.Committed
  else if all d accepted_or_commutes last then Decided (Txn.Aborted Txn.Constraint_violation)
  else Decided (Txn.Aborted Txn.Conflict)

let learned_accepted = Some Woption.Accepted

let learned_rejected = Some Woption.Rejected

let set_learned s ok = s.learned <- (if ok then learned_accepted else learned_rejected)

let learn (d : t) i decision =
  let s = d.(i) in
  match s.learned with
  | Some _ -> Pending
  | None ->
    set_learned s (decision = Woption.Accepted);
    decide d

(* [verdict], counting an escalation of the slot. *)
let escalated s verdict =
  s.escalations <- s.escalations + 1;
  verdict

(* Learn an open slot from a fast quorum of equal votes. *)
let learn_votes config s =
  s.learned = None
  &&
  match Quorum.Tally.decided s.votes ~quorum:(Config.fast_quorum config) with
  | Some ok ->
    set_learned s ok;
    true
  | None -> false

(* Store [votes] as the slot's tally, if it counted a new reply. *)
let counted s votes =
  votes <> s.votes
  && begin
    s.votes <- votes;
    true
  end

let fast_vote config (d : t) i ~acceptor decision =
  let s = d.(i) in
  let before = s.votes in
  if s.learned <> None then Pending
  else if
    not
      (counted s
         (Quorum.Tally.vote before ~pos:(Quorum.position acceptor s.replicas)
            ~ok:(decision = Woption.Accepted)))
  then Pending
  else if learn_votes config s then decide d
  else
    let n = config.Config.replication in
    if Quorum.Tally.fast_impossible s.votes ~n && not (Quorum.Tally.fast_impossible before ~n)
    then escalated s Collided
    else Pending

let keep s w =
  if not s.reported then begin
    s.option <- w;
    s.reported <- true
  end

(* After a counted status reply that settled nothing by itself: a key
   still open after a classic quorum of replies is escalated once. *)
let tally_status config d s =
  ignore (learn_votes config s);
  match decide d with
  | Decided _ as decided -> decided
  | Pending | Escalate | Collided ->
    if s.learned = None && s.escalations = 0
       && Quorum.Tally.replies s.votes >= Config.classic_quorum config
    then escalated s Escalate
    else Pending

let status config (d : t) i ~acceptor (status : Messages.status) =
  let s = d.(i) in
  let pos = Quorum.position acceptor s.replicas in
  match status with
  | Messages.Status_decided committed ->
    if not (counted s (Quorum.Tally.reply s.votes ~pos)) then Pending
    else if committed then Decided Txn.Committed
    else Decided (Txn.Aborted Txn.Conflict)
  | Messages.Status_unknown ->
    if counted s (Quorum.Tally.reply s.votes ~pos) then tally_status config d s else Pending
  | Messages.Status_pending v ->
    if counted s (Quorum.Tally.vote s.votes ~pos ~ok:(v.Messages.decision = Woption.Accepted))
    then begin
      keep s v.Messages.woption;
      tally_status config d s
    end
    else Pending

let outcome d i committed =
  if committed then learn d i Woption.Accepted else Decided (Txn.Aborted Txn.Conflict)

let timeout (d : t) i =
  let s = d.(i) in
  if s.learned = None then escalated s Escalate else Pending

let fill (d : t) i w = keep d.(i) w
