open Mdcc_storage
module Obs = Mdcc_obs.Obs

type level = [ `Local | `Session | `Majority | `Snapshot ]

type t = {
  coordinator : Coordinator.t;
  watermarks : int Key.Tbl.t;
  (* Keys written by a delta whose resulting version is unknown: the next
     read must go to a majority once, then the watermark is precise again. *)
  dirty : unit Key.Tbl.t;
}

let create coordinator =
  { coordinator; watermarks = Key.Tbl.create 64; dirty = Key.Tbl.create 16 }

(* [find] with its exception: no [Some] per read. *)
let watermark t key = match Key.Tbl.find t.watermarks key with v -> v | exception Not_found -> 0

let observe t key version =
  if version > watermark t key then Key.Tbl.replace t.watermarks key version

let read ?(level = `Session) t key callback =
  let obs = Coordinator.obs t.coordinator in
  let deliver result =
    (match result with Some (_, version) -> observe t key version | None -> ());
    Key.Tbl.remove t.dirty key;
    callback result
  in
  match level with
  | `Local ->
    (* Raw read-committed local read: no watermark upgrade, and the key
       stays dirty — a later [`Session] read still knows to catch up.  The
       returned version is still observed (monotonic bookkeeping is free). *)
    Coordinator.read ~level:`Local t.coordinator key (fun result ->
        (match result with Some (_, version) -> observe t key version | None -> ());
        callback result)
  | `Snapshot ->
    (* Point-in-time fast path: no watermark machinery at all — the caller
       explicitly trades session guarantees for a zero-message read. *)
    Coordinator.read ~level:`Snapshot t.coordinator key callback
  | `Majority -> Coordinator.read ~level:`Majority t.coordinator key deliver
  | `Session ->
    if Key.Tbl.mem t.dirty key then begin
      Obs.incr obs "session_read_dirty_upgrade";
      Coordinator.read ~level:`Majority t.coordinator key deliver
    end
    else if Coordinator.read_colocated t.coordinator key ~min_version:(watermark t key) deliver
    then
      (* The co-located replica already meets the watermark: no message. *)
      Obs.incr obs "session_read_colocated"
    else
      (* A stale co-located row (or none wired) still takes the local
         round trip: a Visibility one hop behind the decision lands
         before the reply is judged. *)
      Coordinator.read ~level:`Local t.coordinator key (fun result ->
          let fresh_enough =
            match result with
            | Some (_, version) -> version >= watermark t key
            | None -> watermark t key = 0
          in
          if fresh_enough then begin
            Obs.incr obs "session_read_fresh";
            deliver result
          end
          else begin
            Obs.incr obs "session_read_stale_upgrade";
            Coordinator.read ~level:`Majority t.coordinator key deliver
          end)


let scan ?(level = `Session) t ~table ?order_by ~limit cb =
  let obs = Coordinator.obs t.coordinator in
  let observe_rows rows = List.iter (fun (key, _, version) -> observe t key version) rows in
  match level with
  | `Local -> Coordinator.scan ~level:`Local t.coordinator ~table ?order_by ~limit cb
  | `Snapshot -> Coordinator.scan ~level:`Snapshot t.coordinator ~table ?order_by ~limit cb
  | `Majority ->
    Coordinator.scan ~level:`Majority t.coordinator ~table ?order_by ~limit (fun rows ->
        observe_rows rows;
        cb rows)
  | `Session ->
    (* Scan locally, then upgrade only the rows the session knows to be
       stale (version below the watermark, or dirtied by an own delta
       write) to majority reads — read-your-writes for scans without paying
       wide-area cost for rows the session never touched. *)
    Coordinator.scan ~level:`Local t.coordinator ~table ?order_by ~limit (fun rows ->
        let stale (key, _, version) = Key.Tbl.mem t.dirty key || version < watermark t key in
        let dirty = List.filter (fun (key, _, _) -> Key.Tbl.mem t.dirty key) rows in
        if List.exists stale rows then Obs.incr obs "session_scan_stale_upgrade";
        Coordinator.upgrade_rows t.coordinator ~upgrade:stale ?order_by ~limit rows
          (fun upgraded ->
            List.iter (fun (key, _, _) -> Key.Tbl.remove t.dirty key) dirty;
            observe_rows upgraded;
            cb upgraded))

let submit t txn callback =
  Coordinator.submit t.coordinator txn (fun outcome ->
      (match outcome with
      | Txn.Committed ->
        List.iter
          (fun (key, up) ->
            match up with
            | Update.Physical { vread; _ } | Update.Delete { vread } -> observe t key (vread + 1)
            | Update.Insert _ -> observe t key 1
            | Update.Read_guard { vread } -> observe t key vread
            | Update.Delta _ -> Key.Tbl.replace t.dirty key ())
          txn.Txn.updates
      | Txn.Aborted _ -> ());
      callback outcome)
