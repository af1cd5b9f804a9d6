module Runtime = Mdcc_core.Runtime
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Prof = Mdcc_obs.Prof

type meter = {
  w_size : Net.payload -> int;
  w_on_send : src:int -> dst:int -> bytes:int -> unit;
  w_on_deliver : src:int -> dst:int -> bytes:int -> unit;
}

type conn_handlers = {
  on_data : bytes -> int -> int -> unit;
  on_close : unit -> unit;
}

type conn = {
  c_fd : Unix.file_descr;
  c_loop : t;
  c_out : string Queue.t;  (* unsent chunks; head may be partially written *)
  mutable c_out_off : int;  (* written prefix of the head chunk *)
  mutable c_buffered : int;  (* total unsent bytes *)
  mutable c_open : bool;
  mutable c_close_after_flush : bool;
  mutable c_handlers : conn_handlers option;
}

(* Timers, spawns and node messages all wait on [engine]'s heap, whose
   clock [poll] drags along behind the wall clock; only [posted] has its
   own queue, because other domains fill it. *)
and t = {
  origin : float;  (* gettimeofday at create, seconds *)
  engine : Engine.t;  (* loop-domain only *)
  no_delay : Mdcc_sim.Event_queue.fcell;  (* a node message's delay: 0 *)
  posted : (unit -> unit) Queue.t;  (* cross-domain, under [posted_mx] *)
  posted_mx : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  handlers : (int, src:int -> Net.payload -> unit) Hashtbl.t;
  mutable listeners : (Unix.file_descr * (conn -> conn_handlers)) list;
  mutable conns : conn list;
  mutable read_fds : Unix.file_descr list;
      (* what [poll] selects on for reading: the wake pipe, the listeners
         and the open connections, rebuilt when one of them changes *)
  dc_of : int -> int;
  stop : bool Atomic.t;
  mutable meter : meter option;
  rbuf : bytes;  (* shared read scratch *)
  mutable rt : Runtime.t option;  (* built once, cyclically *)
}

let clock t = (Unix.gettimeofday () -. t.origin) *. 1000.0

let now = clock

(* A message that comes due: the loop's twin of [Network.deliver], minus
   the fault model.  The size measured at send rides in the message. *)
let deliver t ~src ~dst ~bytes payload ctx =
  match Hashtbl.find t.handlers dst with
  | exception Not_found -> ()
  | handler ->
    (match t.meter with
    | Some m ->
      (* A meter installed after the send was not sized; size it now. *)
      let bytes = if bytes > 0 then bytes else m.w_size payload in
      m.w_on_deliver ~src ~dst ~bytes
    | None -> ());
    Net.call_with_trace_context ctx handler ~src payload

let create ?(seed = 1) ?(dc_of = fun _ -> 0) () =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      origin = Unix.gettimeofday ();
      (* The engine resolves its profiler handle here, and [run] may drive
         it from another domain: a detached handle is never enabled, so
         neither domain's profiler sees the engine's writes. *)
      engine = Prof.detached (fun () -> Engine.create ~seed);
      no_delay = { Mdcc_sim.Event_queue.f = 0.0 };
      posted = Queue.create ();
      posted_mx = Mutex.create ();
      wake_r;
      wake_w;
      handlers = Hashtbl.create 32;
      listeners = [];
      conns = [];
      read_fds = [ wake_r ];
      dc_of;
      stop = Atomic.make false;
      meter = None;
      rbuf = Bytes.create 65536;
      rt = None;
    }
  in
  Engine.set_delivery t.engine (fun ~src ~dst ~bytes payload ctx ->
      deliver t ~src ~dst ~bytes payload ctx);
  t

let set_meter t m = t.meter <- Some m

let wake t = try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1) with Unix.Unix_error _ -> ()

let post t f =
  Mutex.lock t.posted_mx;
  Queue.add f t.posted;
  Mutex.unlock t.posted_mx;
  wake t

let request_stop t =
  Atomic.set t.stop true;
  wake t

let stop_requested t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* The Runtime interface                                               *)
(* ------------------------------------------------------------------ *)

(* Size once, capture the sender's causal context, and hand the message to
   the engine as a pooled record: delivered in order, never reentrantly. *)
let send t ~src ~dst payload =
  let bytes =
    match t.meter with
    | Some m ->
      let bytes = m.w_size payload in
      m.w_on_send ~src ~dst ~bytes;
      bytes
    | None -> 0
  in
  Engine.post t.engine t.no_delay ~src ~dst ~bytes payload (Net.trace_context ())

let runtime t =
  match t.rt with
  | Some rt -> rt
  | None ->
    let rt =
      Runtime.make
        ~now:(fun () -> clock t)
        ~send:(fun ~src ~dst payload -> send t ~src ~dst payload)
        ~register:(fun node handler -> Hashtbl.replace t.handlers node handler)
        ~set_timer:(fun ~after f ->
          let h = Engine.schedule_at t.engine ~at:(clock t +. after) f in
          fun () -> Engine.cancel t.engine h)
        ~spawn:(fun f -> ignore (Engine.schedule t.engine ~after:0.0 f))
        ~rng:(Engine.rng t.engine)
        ~dc_of:t.dc_of
        ~trace:(fun ~tag:_ _ -> ())
        ~tracing:(fun () -> false)
        ()
    in
    t.rt <- Some rt;
    rt

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let open_conns t = List.length t.conns

let buffered_bytes t = List.fold_left (fun acc c -> acc + c.c_buffered) 0 t.conns

let max_conn_buffered t =
  List.fold_left (fun acc c -> max acc c.c_buffered) 0 t.conns

let timers_pending t = Engine.pending t.engine

let refresh_fds t =
  t.read_fds <- (t.wake_r :: List.map fst t.listeners) @ List.map (fun c -> c.c_fd) t.conns

let teardown c =
  if c.c_open then begin
    c.c_open <- false;
    c.c_loop.conns <- List.filter (fun c' -> c' != c) c.c_loop.conns;
    refresh_fds c.c_loop;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    match c.c_handlers with Some h -> h.on_close () | None -> ()
  end

(* Write as much of the queue as the socket accepts; true = fully flushed. *)
let flush_out c =
  let continue = ref true in
  while !continue && not (Queue.is_empty c.c_out) do
    let chunk = Queue.peek c.c_out in
    let len = String.length chunk - c.c_out_off in
    match Unix.write_substring c.c_fd chunk c.c_out_off len with
    | n ->
      c.c_buffered <- c.c_buffered - n;
      if n = len then begin
        ignore (Queue.pop c.c_out);
        c.c_out_off <- 0
      end
      else begin
        c.c_out_off <- c.c_out_off + n;
        continue := false
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
      teardown c;
      continue := false
  done;
  c.c_open && Queue.is_empty c.c_out

let write c data =
  if c.c_open && String.length data > 0 then begin
    Queue.add data c.c_out;
    c.c_buffered <- c.c_buffered + String.length data;
    ignore (flush_out c)
  end

let close c =
  if c.c_open then
    if Queue.is_empty c.c_out then teardown c else c.c_close_after_flush <- true

let listen t ?(addr = "127.0.0.1") ~port on_conn =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd SO_REUSEADDR true;
     Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string addr, port));
     Unix.listen fd 64;
     Unix.set_nonblock fd
   with e ->
     Unix.close fd;
     raise e);
  t.listeners <- (fd, on_conn) :: t.listeners;
  refresh_fds t;
  match Unix.getsockname fd with
  | ADDR_INET (_, bound) -> bound
  | ADDR_UNIX _ -> port

let close_listeners t =
  List.iter (fun (fd, _) -> try Unix.close fd with Unix.Unix_error _ -> ()) t.listeners;
  t.listeners <- [];
  refresh_fds t

let accept_ready t (lfd, on_conn) =
  let continue = ref true in
  while !continue do
    match Unix.accept lfd with
    | fd, _peer ->
      Unix.set_nonblock fd;
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      let c =
        {
          c_fd = fd;
          c_loop = t;
          c_out = Queue.create ();
          c_out_off = 0;
          c_buffered = 0;
          c_open = true;
          c_close_after_flush = false;
          c_handlers = None;
        }
      in
      t.conns <- c :: t.conns;
      refresh_fds t;
      c.c_handlers <- Some (on_conn c)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let read_ready t c =
  match Unix.read c.c_fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> teardown c
  | n -> ( match c.c_handlers with Some h -> h.on_data t.rbuf 0 n | None -> ())
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  | exception Unix.Unix_error ((ECONNRESET | EPIPE), _, _) -> teardown c

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)
(* ------------------------------------------------------------------ *)

(* Other domains' thunks become zero-delay engine events. *)
let drain_posted t =
  Mutex.lock t.posted_mx;
  while not (Queue.is_empty t.posted) do
    ignore (Engine.schedule t.engine ~after:0.0 (Queue.pop t.posted))
  done;
  Mutex.unlock t.posted_mx

let drain t =
  drain_posted t;
  Engine.advance t.engine ~until:(clock t)

(* How long select may sleep: [max_wait_ms], clipped to the engine's next
   event. *)
let select_timeout t ~max_wait_ms =
  Float.min (Float.max 0.0 max_wait_ms) (Float.max 0.0 (Engine.next_at t.engine -. clock t))

(* Nothing is ready when select was interrupted or raced a closed
   descriptor. *)
let select t timeout_ms =
  let writes =
    List.filter_map
      (fun c -> if c.c_open && not (Queue.is_empty c.c_out) then Some c.c_fd else None)
      t.conns
  in
  try Unix.select t.read_fds writes [] (timeout_ms /. 1000.0)
  with Unix.Unix_error ((EINTR | EBADF), _, _) -> ([], [], [])

let rec accept_listed t readable = function
  | [] -> ()
  | ((lfd, _) as l) :: rest ->
    if List.mem lfd readable then accept_ready t l;
    accept_listed t readable rest

let rec flush_listed writable = function
  | [] -> ()
  | c :: rest ->
    if c.c_open && List.mem c.c_fd writable then begin
      if flush_out c && c.c_close_after_flush then teardown c
    end;
    flush_listed writable rest

let rec read_listed t readable = function
  | [] -> ()
  | c :: rest ->
    if c.c_open && List.mem c.c_fd readable then read_ready t c;
    read_listed t readable rest

let io t readable writable =
  if List.mem t.wake_r readable then begin
    let continue = ref true in
    while !continue do
      match Unix.read t.wake_r t.rbuf 0 64 with
      | n -> continue := n = 64
      | exception Unix.Unix_error _ -> continue := false
    done
  end;
  accept_listed t readable t.listeners;
  (* Snapshot: handlers may open/close connections while we iterate. *)
  let snapshot = t.conns in
  flush_listed writable snapshot;
  read_listed t readable snapshot

(* An iteration runs drain (every event now due, in (time, seq) order) /
   timers (the select bound) / select / socket I/O.  Its own cost is the
   lists select takes and returns, once per iteration however many
   requests it serves: the read list is kept, not rebuilt, and the phases
   are plain calls.  With [--profile] each phase runs in a span instead,
   which attributes the loop's time across them. *)
let poll t ~max_wait_ms =
  if not (Prof.enabled_ambient ()) then begin
    drain t;
    let readable, writable, _ = select t (select_timeout t ~max_wait_ms) in
    io t readable writable
  end
  else begin
    Prof.span "loop.drain" (fun () -> drain t);
    let timeout = Prof.span "loop.timers" (fun () -> select_timeout t ~max_wait_ms) in
    let readable, writable, _ = Prof.span "loop.select" (fun () -> select t timeout) in
    Prof.span "loop.io" (fun () -> io t readable writable)
  end

let run t =
  while not (Atomic.get t.stop) do
    poll t ~max_wait_ms:100.0
  done
