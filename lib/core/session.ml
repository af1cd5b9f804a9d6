open Mdcc_storage
module Obs = Mdcc_obs.Obs

type level = [ `Local | `Session | `Majority | `Snapshot ]

type t = {
  coordinator : Coordinator.t;
  watermarks : int Key.Tbl.t;
  (* Keys written by a delta whose resulting version is unknown: the next
     read must go to a majority once, then the watermark is precise again. *)
  dirty : unit Key.Tbl.t;
  (* Keys whose newest row the session knows of is absent: its own
     delete, or a tombstone it read at or above the watermark.  Cleared
     once the session reads a present row at or above the watermark, or
     writes one. *)
  absent : unit Key.Tbl.t;
  (* [fresh_colocated] over this session, built once: the co-located read
     takes it without a closure per read. *)
  fresh : Key.t -> (Value.t * int) option -> bool;
}

(* [find] with its exception: no [Some] per read. *)
let watermark t key = match Key.Tbl.find t.watermarks key with v -> v | exception Not_found -> 0

(* The freshness test of a [`Session] answer.  A row by message carries
   its version even when absent (its tombstone's, or 0), so it is fresh
   when that version meets the watermark.  A co-located row carries none
   when absent: it is fresh when the watermark is 0 or the newest row the
   session knows of is absent too. *)
let fresh_by_message t key version = version >= watermark t key

let fresh_colocated t key = function
  | Some (_, version) -> fresh_by_message t key version
  | None -> watermark t key = 0 || Key.Tbl.mem t.absent key

let create coordinator =
  let rec t =
    { coordinator; watermarks = Key.Tbl.create 64; dirty = Key.Tbl.create 16;
      absent = Key.Tbl.create 16; fresh = (fun key row -> fresh_colocated t key row) }
  in
  t

let observe t key version =
  if version > watermark t key then Key.Tbl.replace t.watermarks key version

(* A row was read.  At or above the watermark it is the newest the
   session knows of the key.  An absent row at version 0 was never
   written: a watermark of 0 already admits it, so it marks nothing. *)
let observe_row t key ~exists version =
  if version >= watermark t key then begin
    observe t key version;
    if exists then Key.Tbl.remove t.absent key
    else if version > 0 then Key.Tbl.replace t.absent key ()
  end

let row_of value version exists = if exists then Some (value, version) else None

let deliver t key callback value version exists =
  observe_row t key ~exists version;
  Key.Tbl.remove t.dirty key;
  callback (row_of value version exists)

(* A majority answer below the watermark means a classic quorum has not
   yet applied a write the session saw commit: its Visibility is late, or
   lost and left to the dangling-option scan.  The read is asked again
   after a wait of [first_wait] ms that doubles each round, at most
   [max_majority_reads] times in all: 7 waits, 12.7 s, over twice the
   default transaction timeout.  A read still stale then is dropped, so a
   write no quorum ever applies cannot keep the network busy forever. *)
let first_wait = 100.0

let max_majority_reads = 8

let rec read_majority_fresh t key callback ~sent =
  Coordinator.read_row ~level:`Majority t.coordinator key (fun value version exists ->
      if fresh_by_message t key version then deliver t key callback value version exists
      else if sent < max_majority_reads then begin
        Obs.incr (Coordinator.obs t.coordinator) "session_read_stale_upgrade";
        ignore
          (Runtime.set_timer (Coordinator.runtime t.coordinator)
             ~after:(first_wait *. Float.of_int (1 lsl (sent - 1)))
             (fun () -> read_majority_fresh t key callback ~sent:(sent + 1)))
      end
      else Obs.incr (Coordinator.obs t.coordinator) "session_read_dropped")

let read ?(level = `Session) t key callback =
  let obs = Coordinator.obs t.coordinator in
  match level with
  | `Local ->
    (* Raw read-committed local read: no watermark upgrade, and the key
       stays dirty — a later [`Session] read still knows to catch up.  The
       returned version is still observed (monotonic bookkeeping is free). *)
    Coordinator.read_row ~level:`Local t.coordinator key (fun value version exists ->
        observe_row t key ~exists version;
        callback (row_of value version exists))
  | `Snapshot ->
    (* Point-in-time fast path: no watermark machinery at all — the caller
       explicitly trades session guarantees for a zero-message read. *)
    Coordinator.read ~level:`Snapshot t.coordinator key callback
  | `Majority -> Coordinator.read_row ~level:`Majority t.coordinator key (deliver t key callback)
  | `Session ->
    if Key.Tbl.mem t.dirty key then begin
      Obs.incr obs "session_read_dirty_upgrade";
      read_majority_fresh t key callback ~sent:1
    end
    else if
      Coordinator.read_colocated t.coordinator key ~fresh:t.fresh (fun row ->
          (match row with Some (_, version) -> observe_row t key ~exists:true version | None -> ());
          callback row)
    then
      (* The co-located replica already meets the watermark: no message. *)
      Obs.incr obs "session_read_colocated"
    else
      (* A stale co-located row (or none wired) still takes the local
         round trip: a Visibility one hop behind the decision lands
         before the reply is judged. *)
      Coordinator.read_row ~level:`Local t.coordinator key (fun value version exists ->
          if fresh_by_message t key version then begin
            Obs.incr obs "session_read_fresh";
            deliver t key callback value version exists
          end
          else begin
            Obs.incr obs "session_read_stale_upgrade";
            read_majority_fresh t key callback ~sent:1
          end)

let submit t txn callback =
  Coordinator.submit t.coordinator txn (fun outcome ->
      (match outcome with
      | Txn.Committed ->
        List.iter
          (fun (key, up) ->
            match up with
            | Update.Physical { vread; _ } ->
              observe t key (vread + 1);
              Key.Tbl.remove t.absent key
            | Update.Delete { vread } ->
              observe t key (vread + 1);
              Key.Tbl.replace t.absent key ()
            | Update.Insert _ ->
              observe t key 1;
              Key.Tbl.remove t.absent key
            | Update.Read_guard { vread } -> observe t key vread
            | Update.Delta _ ->
              Key.Tbl.replace t.dirty key ();
              Key.Tbl.remove t.absent key)
          txn.Txn.updates
      | Txn.Aborted _ -> ());
      callback outcome)
