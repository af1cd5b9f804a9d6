module Rng = Mdcc_util.Rng
module Prof = Mdcc_obs.Prof

type sim_time = float

type delivery =
  src:int -> dst:int -> bytes:int -> Event_queue.payload -> string option -> unit

(* The clock lives in an [Event_queue.fcell] (a flat one-float record): a
   mutable [float] field in this mixed record would allocate a box on
   every advance, i.e. once per dispatched event. *)
type t = {
  now : Event_queue.fcell;
  at : Event_queue.fcell;  (* the time being pushed, handed to the queue unboxed *)
  mutable seq : int;
  queue : Event_queue.t;
  mutable free : Event_queue.event array;  (* message records not in flight *)
  mutable nfree : int;
  mutable deliver : delivery;
  rng : Rng.t;
  prof : Prof.t;  (* resolved once at create — never a DLS read per event *)
}

type handle = Event_queue.event

(* What a message record holds while it waits on the free stack: nothing
   of the last message it carried, so the stack keeps no payload alive. *)
type Event_queue.payload += Vacant

let no_delivery ~src:_ ~dst:_ ~bytes:_ _ _ =
  invalid_arg "Engine: a message was posted but no delivery function is registered"

let create ~seed =
  {
    now = { Event_queue.f = 0.0 };
    at = { Event_queue.f = 0.0 };
    seq = 0;
    queue = Event_queue.create ();
    free = [||];
    nfree = 0;
    deliver = no_delivery;
    rng = Rng.create seed;
    prof = Prof.ambient ();
  }

let set_delivery t f =
  if t.deliver != no_delivery then
    invalid_arg "Engine.set_delivery: one network per engine, and this one has one";
  t.deliver <- f

let now t = t.now.Event_queue.f

type stamp = { mutable time : sim_time }

let now_into t c = c.time <- t.now.Event_queue.f

let rng t = t.rng

(* Stage [at] (clamped to now) in the push cell and take the next [seq]. *)
let[@inline] stage t at =
  let now = t.now.Event_queue.f in
  t.at.Event_queue.f <- (if at < now then now else at);
  t.seq <- t.seq + 1

let[@inline] enqueue t at f =
  stage t at;
  Event_queue.push_cell t.queue ~at:t.at ~seq:t.seq f

(* [Float.max 0.0 after], spelled out so it stays unboxed: a negative
   delay clamps to 0 and a NaN passes through. *)
let[@inline] after_time t after =
  t.now.Event_queue.f +. if after > 0.0 || after <> after then after else 0.0

let schedule_at t ~at f = enqueue t at f

let schedule t ~after f = enqueue t (after_time t after) f

(* One thunk record for the life of the timer: each tick runs [f], then
   stages [now + period] and takes the next [seq] — exactly what a [loop]
   that ends with [schedule ~after:period loop] would push — and re-inserts
   the same record.  A tick therefore orders against every other event as
   that loop's would, and allocates nothing. *)
let every t ~period f =
  if not (period > 0.0) then
    Mdcc_util.Invariant.violate ~context:"Engine.every" "period %g is not > 0" period;
  let rec ev = Event_queue.Thunk { seq = 0; cancelled = false; run = tick }
  and tick () =
    f ();
    arm ()
  and arm () =
    stage t (t.now.Event_queue.f +. period);
    Event_queue.repush t.queue ~at:t.at ~seq:t.seq ev
  in
  arm ()

(* An alarm is one thunk record, spent (its [cancelled] mark set) while it
   waits outside the heap; arming it stages [now + after], takes the next
   [seq] -- what [schedule ~after f] would push -- and inserts the record
   itself, so arming allocates nothing. *)
type alarm = Event_queue.event

let alarm f = Event_queue.Thunk { seq = 0; cancelled = true; run = f }

let arm t (a : alarm) ~after =
  match a with
  | Event_queue.Thunk { cancelled = true; _ } ->
    stage t (after_time t after);
    Event_queue.repush t.queue ~at:t.at ~seq:t.seq a
  | Event_queue.Thunk _ | Event_queue.Msg _ ->
    Mdcc_util.Invariant.violate ~context:"Engine.arm" "the alarm is already armed"

(* A message takes a record from the free stack — a new one only while the
   number in flight is at a new high — and is pushed with the next [seq],
   so it orders against timers exactly as a scheduled closure would. *)
let post t delay ~src ~dst ~bytes payload ctx =
  stage t (after_time t delay.Event_queue.f);
  let seq = t.seq in
  let ev =
    if t.nfree = 0 then Event_queue.Msg { seq; src; dst; bytes; payload; ctx }
    else begin
      t.nfree <- t.nfree - 1;
      let ev = t.free.(t.nfree) in
      (match ev with
      | Event_queue.Msg m ->
        m.seq <- seq;
        m.src <- src;
        m.dst <- dst;
        m.bytes <- bytes;
        m.payload <- payload;
        m.ctx <- ctx
      | Event_queue.Thunk _ -> assert false (* the stack holds only messages *));
      ev
    end
  in
  Event_queue.push_msg t.queue ~at:t.at ev

let release t ev =
  if t.nfree = Array.length t.free then begin
    let free = Array.make (max 16 (2 * t.nfree)) ev in
    Array.blit t.free 0 free 0 t.nfree;
    t.free <- free
  end;
  t.free.(t.nfree) <- ev;
  t.nfree <- t.nfree + 1

let cancel t h = Event_queue.cancel t.queue h

let pending t = Event_queue.live t.queue

let next_at t = Event_queue.next_at t.queue

(* A popped message is copied out and its record returned to the free
   stack before delivery runs, so a handler that sends (and reuses the
   record) or raises (and never returns here) cannot corrupt it. *)
let dispatch t ev =
  match ev with
  | Event_queue.Thunk { run; _ } -> run ()
  | Event_queue.Msg m ->
    let src = m.src and dst = m.dst and bytes = m.bytes in
    let payload = m.payload and ctx = m.ctx in
    m.payload <- Vacant;
    m.ctx <- None;
    release t ev;
    t.deliver ~src ~dst ~bytes payload ctx

let step t =
  let ev = Event_queue.pop_before t.queue ~limit:Float.infinity ~now:t.now in
  if Event_queue.is_dummy ev then false
  else begin
    dispatch t ev;
    true
  end

(* The dispatch loop: [pop_before] hands back the next live event and
   advances the clock cell in place, allocating nothing per event. *)
let rec drain t ~limit =
  let ev = Event_queue.pop_before t.queue ~limit ~now:t.now in
  if not (Event_queue.is_dummy ev) then begin
    dispatch t ev;
    drain t ~limit
  end

let advance t ~until =
  drain t ~limit:until;
  if t.now.Event_queue.f < until then t.now.Event_queue.f <- until

let run ?until t =
  Prof.span_in t.prof "engine.run" (fun () ->
      match until with
      | None -> drain t ~limit:Float.infinity
      | Some until -> advance t ~until)
