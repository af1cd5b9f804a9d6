module Net = Mdcc_sim.Network

type t = {
  runtime : Runtime.t;
  src : int;
  mutable depth : int;  (* steps entered and not yet left *)
  mutable len : int;  (* sends queued by the current step *)
  mutable dsts : int array;
  mutable payloads : Net.payload array;
  mutable counts : int array;
      (* queued payloads per destination node id; all 0 outside [flush] *)
}

(* What an unused payload slot holds, so a flushed step keeps nothing
   alive: a constant, shared by every outbox and never sent. *)
let filler = Messages.Sync_request { entries = [] }

let create runtime ~src =
  { runtime; src; depth = 0; len = 0; dsts = [||]; payloads = [||]; counts = [||] }

let grow t =
  let cap = Stdlib.max 16 (2 * t.len) in
  let dsts = Array.make cap 0 and payloads = Array.make cap filler in
  Array.blit t.dsts 0 dsts 0 t.len;
  Array.blit t.payloads 0 payloads 0 t.len;
  t.dsts <- dsts;
  t.payloads <- payloads

let grow_counts t dst =
  let counts = Array.make (Stdlib.max (dst + 1) (2 * Array.length t.counts)) 0 in
  Array.blit t.counts 0 counts 0 (Array.length t.counts);
  t.counts <- counts

let send t dst payload =
  if t.depth = 0 then Runtime.send t.runtime ~src:t.src ~dst payload
  else begin
    if t.len = Array.length t.dsts then grow t;
    t.dsts.(t.len) <- dst;
    t.payloads.(t.len) <- payload;
    t.len <- t.len + 1
  end

(* The [count] payloads queued for [dst] from slot [i] on, in queue
   order. *)
let queued_for t dst i count =
  let items = Array.make count filler in
  let j = ref i in
  for k = 0 to count - 1 do
    while t.dsts.(!j) <> dst do
      incr j
    done;
    items.(k) <- t.payloads.(!j);
    incr j
  done;
  items

(* Whether the payloads queued for [dst] from slot [i] on are, one for
   one, the very payloads of [items] from index [k] on. *)
let rec queued_are t dst i n items k =
  if i = n then k = Array.length items
  else if t.dsts.(i) <> dst then queued_are t dst (i + 1) n items k
  else
    k < Array.length items
    && items.(k) == t.payloads.(i)
    && queued_are t dst (i + 1) n items (k + 1)

(* Count the queue per destination, then walk it once: a destination's
   first slot sends everything queued for it and zeroes its count, so its
   later slots send nothing.  A broadcast queues one payload record for
   every replica, so consecutive destinations often get the same items:
   they share one Batch. *)
let flush t =
  let n = t.len in
  t.len <- 0;
  for i = 0 to n - 1 do
    let dst = t.dsts.(i) in
    if dst >= Array.length t.counts then grow_counts t dst;
    t.counts.(dst) <- t.counts.(dst) + 1
  done;
  let last = ref filler and last_items = ref [||] in
  for i = 0 to n - 1 do
    let dst = t.dsts.(i) in
    let count = t.counts.(dst) in
    if count > 0 then begin
      t.counts.(dst) <- 0;
      if count > 1 && not (queued_are t dst i n !last_items 0) then begin
        last_items := queued_for t dst i count;
        last := Messages.Batch !last_items
      end;
      Runtime.send t.runtime ~src:t.src ~dst (if count = 1 then t.payloads.(i) else !last)
    end;
    t.payloads.(i) <- filler
  done

let queued t = t.len > 0

let enter t = t.depth <- t.depth + 1

let leave t =
  t.depth <- t.depth - 1;
  if t.depth = 0 && t.len > 0 then flush t
