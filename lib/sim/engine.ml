module Rng = Mdcc_util.Rng
module Prof = Mdcc_obs.Prof

type sim_time = float

(* The clock lives in an [Event_queue.fcell] (a flat one-float record): a
   mutable [float] field in this mixed record would allocate a box on
   every advance, i.e. once per dispatched event. *)
type t = {
  now : Event_queue.fcell;
  at : Event_queue.fcell;  (* the time being pushed, handed to the queue unboxed *)
  mutable seq : int;
  queue : Event_queue.t;
  rng : Rng.t;
  prof : Prof.t;  (* resolved once at create — never a DLS read per event *)
}

type handle = Event_queue.event

let create ~seed =
  {
    now = { Event_queue.f = 0.0 };
    at = { Event_queue.f = 0.0 };
    seq = 0;
    queue = Event_queue.create ();
    rng = Rng.create seed;
    prof = Prof.ambient ();
  }

let now t = t.now.Event_queue.f

let rng t = t.rng

let[@inline] enqueue t at f =
  let now = t.now.Event_queue.f in
  t.at.Event_queue.f <- (if at < now then now else at);
  t.seq <- t.seq + 1;
  Event_queue.push_cell t.queue ~at:t.at ~seq:t.seq f

(* [Float.max 0.0 after], spelled out so it stays unboxed: a negative
   delay clamps to 0 and a NaN passes through. *)
let[@inline] after_time t after =
  t.now.Event_queue.f +. if after > 0.0 || after <> after then after else 0.0

let schedule_at t ~at f = enqueue t at f

let schedule t ~after f = enqueue t (after_time t after) f

let schedule_in t delay f = enqueue t (after_time t delay.Event_queue.f) f

let cancel t h = Event_queue.cancel t.queue h

let pending t = Event_queue.size t.queue

let step t =
  let ev = Event_queue.pop_before t.queue ~limit:Float.infinity ~now:t.now in
  if Event_queue.is_dummy ev then false
  else begin
    ev.Event_queue.run ();
    true
  end

(* The dispatch loop: [pop_before] hands back the next live event and
   advances the clock cell in place, allocating nothing per event. *)
let drain t ~limit =
  let queue = t.queue and now = t.now in
  let rec loop () =
    let ev = Event_queue.pop_before queue ~limit ~now in
    if not (Event_queue.is_dummy ev) then begin
      ev.Event_queue.run ();
      loop ()
    end
  in
  loop ()

let run ?until t =
  Prof.span_in t.prof "engine.run" (fun () ->
      match until with
      | None -> drain t ~limit:Float.infinity
      | Some limit ->
        drain t ~limit;
        if t.now.Event_queue.f < limit then t.now.Event_queue.f <- limit)
