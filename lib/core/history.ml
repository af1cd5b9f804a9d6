open Mdcc_storage

type entry = { at : float; node : int; event : Event.t }

type contradiction = {
  c_txid : Txn.id;
  c_key : Key.t;
  c_first : entry;
  c_second : entry;
}

type t = {
  mutable rev : entry list;
  mutable count : int;
  learned : (Key.t * Txn.id, entry) Hashtbl.t;  (* each option's first learn *)
  mutable contradictions : contradiction list;  (* newest first *)
}

let create () = { rev = []; count = 0; learned = Hashtbl.create 64; contradictions = [] }

(* An option's learned value must never change: the first learn of each
   (key, txid) is kept, and a later one with the other decision is a
   contradiction.  Learns stay out of the entry list ([Event.in_history]),
   so a run without a contradiction reports what it did without the
   table. *)
let learn t ~at ~node event txid key decision =
  match Hashtbl.find t.learned (key, txid) with
  | exception Not_found -> Hashtbl.add t.learned (key, txid) { at; node; event }
  | first -> (
    match first.event with
    | Event.Learned { decision = d; _ } | Event.Classic_learned { decision = d; _ }
      when not (Woption.decision_equal d decision) ->
      t.contradictions <-
        { c_txid = txid; c_key = key; c_first = first; c_second = { at; node; event } }
        :: t.contradictions
    | _ -> ())

let record t ~at ~node event =
  if Event.in_history event then begin
    t.rev <- { at; node; event } :: t.rev;
    t.count <- t.count + 1
  end
  else
    match event with
    | Event.Learned { txid; key; decision } | Event.Classic_learned { txid; key; decision } ->
      learn t ~at ~node event txid key decision
    | _ -> ()

let events t = List.rev t.rev

let iter_newest_first f t = List.iter f t.rev

let length t = t.count

let contradictions t = List.rev t.contradictions
