module Obs = Mdcc_obs.Obs
module Registry = Mdcc_obs.Registry
module Prometheus = Mdcc_obs.Prometheus

type t = {
  parser : Parser.t;
  backend : Backend.t;
  write : string -> unit;
  close : unit -> unit;
  obs : Obs.t;
  out : Buffer.t;  (* replies of the current pump, flushed as one write *)
  mutable busy : bool;  (* an async operation owns the connection *)
  mutable txn : Backend.txn_op list option;  (* buffered ops, newest first *)
  mutable txn_ops : int;  (* ops queued; past [max_txn_ops], the txn is void *)
  mutable closed : bool;
  mutable seen_resyncs : int;  (* parser resyncs already counted *)
}

(* [Txn.make]'s duplicate-key check is pairwise, so a write-set's length
   is bounded here, where it comes in from outside. *)
let max_txn_ops = 1024

let create ~backend ~write ~close ~obs () =
  {
    parser = Parser.create ();
    backend;
    write;
    close;
    obs;
    out = Buffer.create 256;
    busy = false;
    txn = None;
    txn_ops = 0;
    closed = false;
    seen_resyncs = 0;
  }

(* pump runs until the parser is drained or an operation went async, so an
   idle handler never sits on a complete unanswered request. *)
let idle t = not t.busy

let flush t =
  if Buffer.length t.out > 0 then begin
    let s = Buffer.contents t.out in
    Buffer.clear t.out;
    Obs.incr t.obs ~by:(String.length s) "wire.bytes_written";
    t.write s
  end

let emit t s = Buffer.add_string t.out s

let store_reply = function
  | Backend.Stored -> Protocol.stored
  | Backend.Not_stored -> Protocol.not_stored
  | Backend.Exists -> Protocol.exists
  | Backend.Not_found -> Protocol.not_found
  | Backend.Server_busy msg -> Protocol.server_error msg

let delete_reply = function
  | Backend.Stored -> Protocol.deleted
  | Backend.Not_found -> Protocol.not_found
  | Backend.Not_stored | Backend.Exists -> Protocol.server_error "unexpected delete status"
  | Backend.Server_busy msg -> Protocol.server_error msg

(* Per-verb request counters, named so the live [stats] command can map
   them onto memcached's cmd_* / *_hits / *_misses fields. *)
let verb_counter = function
  | Protocol.Get _ -> "wire.cmd.get"
  | Set _ -> "wire.cmd.set"
  | Cas _ -> "wire.cmd.cas"
  | Delete _ -> "wire.cmd.delete"
  | Read _ -> "wire.cmd.read"
  | Txn -> "wire.cmd.txn"
  | Commit -> "wire.cmd.commit"
  | Abort -> "wire.cmd.abort"
  | Stats -> "wire.cmd.stats"
  | Stats_detail -> "wire.cmd.stats"
  | Metrics -> "wire.cmd.metrics"
  | Http_get _ -> "wire.cmd.metrics"
  | Version -> "wire.cmd.version"
  | Quit -> "wire.cmd.quit"

let count_get t = function
  | Some _ -> Obs.incr t.obs "wire.get_hits"
  | None -> Obs.incr t.obs "wire.get_misses"

let rec pump t =
  if (not t.busy) && not t.closed then
    match Parser.next t.parser with
    | None -> flush t
    | Some Parser.Junk ->
      Obs.incr t.obs "wire.parser_errors";
      emit t Protocol.error;
      pump t
    | Some (Parser.Bad msg) ->
      Obs.incr t.obs "wire.parser_errors";
      emit t (Protocol.client_error msg);
      pump t
    | Some (Parser.Req r) ->
      Obs.incr t.obs (verb_counter r);
      request t r

and finish t =
  t.busy <- false;
  pump t

and request t r =
  match (t.txn, r) with
  (* ---- transaction mode: buffer writes, answer QUEUED ---- *)
  | Some ops, Protocol.Set s ->
    queue t ops (Backend.T_set { key = s.s_key; flags = s.s_flags; data = s.s_data })
  | Some ops, Delete { key; _ } -> queue t ops (Backend.T_delete key)
  | Some _, Cas _ ->
    (* the commit-time read chooses vread; a client cas token has no slot *)
    emit t (Protocol.client_error "cas not allowed inside txn");
    pump t
  | Some _, Txn ->
    emit t (Protocol.client_error "txn already open");
    pump t
  | Some _, Commit when t.txn_ops > max_txn_ops ->
    t.txn <- None;
    emit t (Protocol.aborted "txn too long");
    pump t
  | Some ops, Commit ->
    t.txn <- None;
    t.busy <- true;
    t.backend.b_commit (List.rev ops) (fun res ->
        (match res with
        | Ok () ->
          Obs.incr t.obs "wire.commit_ok";
          emit t Protocol.committed
        | Error reason ->
          Obs.incr t.obs "wire.commit_aborted";
          emit t (Protocol.aborted reason));
        finish t)
  | Some _, Abort ->
    t.txn <- None;
    emit t (Protocol.aborted "by client");
    pump t
  | None, (Commit | Abort) ->
    emit t (Protocol.client_error "no open txn");
    pump t
  | None, Txn ->
    t.txn <- Some [];
    t.txn_ops <- 0;
    emit t Protocol.started;
    pump t
  (* ---- reads: allowed in either mode, never joined to the write-set ---- *)
  | _, Get { keys; with_cas } ->
    t.busy <- true;
    get_keys t ~with_cas keys
  | _, Read { key; level } ->
    t.busy <- true;
    t.backend.b_get key level (fun hit ->
        count_get t hit;
        (match hit with
        | Some h -> Protocol.render_hit t.out ~with_cas:true h
        | None -> ());
        emit t Protocol.end_line;
        finish t)
  (* ---- autocommit writes ---- *)
  | None, Set s ->
    t.busy <- true;
    t.backend.b_set ~key:s.s_key ~flags:s.s_flags ~data:s.s_data (fun st ->
        if not s.s_noreply then emit t (store_reply st);
        finish t)
  | None, Cas { store = s; cas } ->
    t.busy <- true;
    t.backend.b_cas ~key:s.s_key ~flags:s.s_flags ~data:s.s_data ~cas (fun st ->
        (match st with
        | Backend.Stored -> Obs.incr t.obs "wire.cas_hits"
        | Backend.Exists -> Obs.incr t.obs "wire.cas_badval"
        | Backend.Not_found -> Obs.incr t.obs "wire.cas_misses"
        | Backend.Not_stored | Backend.Server_busy _ -> ());
        if not s.s_noreply then emit t (store_reply st);
        finish t)
  | None, Delete { key; noreply } ->
    t.busy <- true;
    t.backend.b_delete key (fun st ->
        (match st with
        | Backend.Stored -> Obs.incr t.obs "wire.delete_hits"
        | Backend.Not_found -> Obs.incr t.obs "wire.delete_misses"
        | Backend.Not_stored | Backend.Exists | Backend.Server_busy _ -> ());
        if not noreply then emit t (delete_reply st);
        finish t)
  (* ---- immediate answers ---- *)
  | _, Stats ->
    List.iter (fun (name, v) -> emit t (Protocol.stat_line name v)) (t.backend.b_stats ());
    emit t Protocol.end_line;
    pump t
  | _, Stats_detail ->
    (* Every live registry entry, verbatim names: the firehose companion
       to the memcached-compatible [stats] field set. *)
    let reg = Obs.registry t.obs in
    List.iter
      (fun (name, v) -> emit t (Protocol.stat_line name (string_of_int v)))
      (Registry.counter_bindings reg);
    List.iter
      (fun (name, v) -> emit t (Protocol.stat_line name (string_of_int v)))
      (Registry.gauge_bindings reg);
    List.iter
      (fun (name, samples) ->
        emit t
          (Protocol.stat_line (name ^ ".count")
             (string_of_int (List.length samples))))
      (Registry.hist_bindings reg);
    emit t Protocol.end_line;
    pump t
  | _, Metrics ->
    emit t (Prometheus.render (Obs.registry t.obs));
    emit t Protocol.end_line;
    pump t
  | _, Http_get path ->
    (* Answer and close: the HTTP request's header lines are still in the
       parser, and closing first keeps them from echoing as ERRORs. *)
    (match path with
    | "/metrics" ->
      emit t
        (Protocol.http_response ~status:"200 OK"
           ~content_type:"text/plain; version=0.0.4"
           (Prometheus.render (Obs.registry t.obs)))
    | _ ->
      emit t
        (Protocol.http_response ~status:"404 Not Found" ~content_type:"text/plain"
           "not found\n"));
    t.closed <- true;
    flush t;
    t.close ()
  | _, Version ->
    emit t (Protocol.version_line "mdcc-wire/1");
    pump t
  | _, Quit ->
    t.closed <- true;
    flush t;
    t.close ()

(* One write into the open txn.  Past [max_txn_ops] the buffered ops
   are dropped and the txn stays open but void: later writes are refused
   too, and [commit] aborts, so no write of it lands on its own. *)
and queue t ops op =
  if t.txn_ops >= max_txn_ops then begin
    t.txn <- Some [];
    t.txn_ops <- max_txn_ops + 1;
    emit t (Protocol.client_error "txn too long")
  end
  else begin
    t.txn <- Some (op :: ops);
    t.txn_ops <- t.txn_ops + 1;
    emit t Protocol.queued
  end;
  pump t

(* The keys of one [get], one backend read after another: one closure
   per key. *)
and get_keys t ~with_cas = function
  | [] ->
    emit t Protocol.end_line;
    finish t
  | key :: rest ->
    t.backend.b_get key `Session (fun hit ->
        count_get t hit;
        (match hit with
        | Some h -> Protocol.render_hit t.out ~with_cas h
        | None -> ());
        get_keys t ~with_cas rest)

let on_data t buf off len =
  if not t.closed then begin
    Obs.incr t.obs ~by:len "wire.bytes_read";
    Parser.feed t.parser buf off len;
    let r = Parser.resyncs t.parser in
    if r > t.seen_resyncs then begin
      Obs.incr t.obs ~by:(r - t.seen_resyncs) "wire.parser_resyncs";
      t.seen_resyncs <- r
    end;
    pump t
  end
