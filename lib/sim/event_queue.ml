module Prof = Mdcc_obs.Prof

type payload = ..

type event =
  | Thunk of {
      mutable seq : int;
      mutable cancelled : bool;
      run : unit -> unit;
    }
  | Msg of {
      mutable seq : int;
      mutable src : int;
      mutable dst : int;
      mutable bytes : int;
      mutable payload : payload;
      mutable ctx : string option;
    }

(* The heap is split into two parallel pre-sized arrays: [ats] holds the
   event times unboxed ([float array] is flat), [evs] the events.  A
   mixed record would box its [float] field, costing two words per push
   and a pointer chase per heap comparison; the split layout allocates
   nothing per operation beyond a thunk's own record and keeps the
   compare path inside one cache-friendly float array. *)
type t = {
  mutable ats : float array;
  mutable evs : event array;
  mutable len : int;
  mutable dead : int;  (* cancelled entries still sitting in the heap *)
  prof : Prof.t;  (* resolved once at create — never a DLS read per op *)
}

let dummy = Thunk { seq = 0; cancelled = true; run = ignore }

(* Below this size, cancelled entries are cheap enough to leave in place. *)
let compact_floor = 64

let create () =
  {
    ats = Array.make compact_floor 0.0;
    evs = Array.make compact_floor dummy;
    len = 0;
    dead = 0;
    prof = Prof.ambient ();
  }

let size t = t.len

let live t = t.len - t.dead

let is_empty t = t.len = 0

let next_at t = if t.len = 0 then Float.infinity else t.ats.(0)

let[@inline] seq_of = function Thunk e -> e.seq | Msg m -> m.seq

(* Only a thunk can be cancelled; a message in flight always fires. *)
let[@inline] is_cancelled = function Thunk e -> e.cancelled | Msg _ -> false

let before t i j =
  let ai = t.ats.(i) and aj = t.ats.(j) in
  ai < aj || (ai = aj && seq_of t.evs.(i) < seq_of t.evs.(j))

let grow t =
  let cap = 2 * Array.length t.evs in
  let ats = Array.make cap 0.0 and evs = Array.make cap dummy in
  Array.blit t.ats 0 ats 0 t.len;
  Array.blit t.evs 0 evs 0 t.len;
  t.ats <- ats;
  t.evs <- evs

let swap t i j =
  let a = t.ats.(i) and e = t.evs.(i) in
  t.ats.(i) <- t.ats.(j);
  t.evs.(i) <- t.evs.(j);
  t.ats.(j) <- a;
  t.evs.(j) <- e

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.len && before t l !smallest then smallest := l;
  if r < t.len && before t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

(* Drop every cancelled entry and re-heapify the survivors.  Heap order is
   a function only of the [(at, seq)] total order over live entries, so pop
   order — and therefore the simulation — is unaffected. *)
let compact t =
  Prof.count_in t.prof "event_queue.compact";
  let live = ref 0 in
  for i = 0 to t.len - 1 do
    let ev = t.evs.(i) in
    if not (is_cancelled ev) then begin
      t.ats.(!live) <- t.ats.(i);
      t.evs.(!live) <- ev;
      incr live
    end
  done;
  Array.fill t.evs !live (t.len - !live) dummy;
  t.len <- !live;
  t.dead <- 0;
  for i = (t.len / 2) - 1 downto 0 do
    sift_down t i
  done

(* A single-field float record is stored flat, so writing [c.f] is a raw
   float store.  The engine's clock lives in one of these and advances
   without a box per event, and [push_cell]/[push_msg] read a new event's
   time from one: a [float] argument crossing into this module would be
   boxed on every push.  It is [Rng]'s cell, so the network's jitter draw
   and its delay share one type. *)
type fcell = Mdcc_util.Rng.fcell = { mutable f : float }

let[@inline] insert t at ev =
  Prof.count_in t.prof "event_queue.push";
  if t.len = Array.length t.evs then begin
    (* Reclaim dead entries before paying for a bigger array. *)
    if t.dead * 2 > t.len then compact t;
    if t.len = Array.length t.evs then grow t
  end;
  t.ats.(t.len) <- at;
  t.evs.(t.len) <- ev;
  t.len <- t.len + 1;
  sift_up t (t.len - 1)

let push t ~at ~seq run =
  let ev = Thunk { seq; cancelled = false; run } in
  insert t at ev;
  ev

let push_cell t ~at ~seq run =
  let ev = Thunk { seq; cancelled = false; run } in
  insert t at.f ev;
  ev

let push_msg t ~at ev = insert t at.f ev

(* A periodic timer's record goes back into the heap as itself: a fresh
   [seq], and the spent mark [pop_before] set cleared. *)
let repush t ~at ~seq = function
  | Thunk e as ev ->
    e.seq <- seq;
    e.cancelled <- false;
    insert t at.f ev
  | Msg _ -> invalid_arg "Event_queue.repush: a message is not a timer"

(* Cancellation is lazy (the entry stays until popped), but a cancel-heavy
   run — every committed transaction cancels its timeout — would otherwise
   bloat the heap with dead entries.  Compact once they outnumber the live
   ones, so heap size stays within a constant factor of the live count. *)
let cancel t = function
  | Thunk e when not e.cancelled ->
    Prof.count_in t.prof "event_queue.cancel";
    e.cancelled <- true;
    t.dead <- t.dead + 1;
    if t.len >= compact_floor && t.dead * 2 > t.len then compact t
  | Thunk _ | Msg _ -> ()

(* Remove the root without inspecting it.  [drop_root] is the only place
   an entry leaves the heap. *)
let drop_root t =
  let ev = t.evs.(0) in
  t.len <- t.len - 1;
  t.ats.(0) <- t.ats.(t.len);
  t.evs.(0) <- t.evs.(t.len);
  t.evs.(t.len) <- dummy;
  if t.len > 0 then sift_down t 0;
  if is_cancelled ev && t.dead > 0 then t.dead <- t.dead - 1

(* The engine's dispatch primitive: remove and return the earliest live
   event whose time is <= [limit], discarding cancelled roots on the way;
   [dummy] when none qualifies.  The popped event's time is written into
   [now] (the engine's clock cell).  Everything stays in unboxed floats —
   no option, no float box, no closure — so a simulation's inner loop
   allocates nothing per dispatched event.  A popped thunk is marked spent
   (its [cancelled] flag set) once it has left the heap, so cancelling its
   handle later is the no-op it should be rather than a phantom dead
   entry that would trigger early compactions. *)
let rec pop_before t ~limit ~now =
  if t.len = 0 then dummy
  else begin
    let ev = t.evs.(0) in
    if is_cancelled ev then begin
      drop_root t;
      pop_before t ~limit ~now
    end
    else if t.ats.(0) <= limit then begin
      now.f <- t.ats.(0);
      drop_root t;
      (match ev with Thunk e -> e.cancelled <- true | Msg _ -> ());
      Prof.count_in t.prof "event_queue.pop";
      ev
    end
    else dummy
  end

let is_dummy ev = ev == dummy
