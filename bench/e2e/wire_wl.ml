(* The wire workload: the memcached-style front end served from the socket
   runtime, driven open-loop.

   The server is [Server.create] with 5 nodes and 1 partition, running its
   loop on a second domain; node-to-node delivery is in-process with no
   injected delay, so every latency here is processor time and queueing.
   The load generator is one thread on the main domain holding 2 TCP
   connections.  Requests arrive as a seeded Poisson process: 80 % [get],
   20 % [set] of 64-byte values, keys Zipf(0.99) over a private 500-key
   slice per connection, preloaded during set-up.  Each request is timed
   from the moment it was due, so a stall delays every request behind it
   and shows as latency.

   Phase A offers 8,000 req/s for three windows after a warm-up; each
   latency is the median of the three windows' values.  Phase B (traced
   sets only) climbs a rate ladder to the highest rate whose get and set
   p99 stay within 5 ms with at least 99 % of requests answered.

   The wire deployment has no virtual clock: its five replicas share one
   process, and the multi-DC latency is the simulator's job (see
   [Server]).  Its virtual commit latency is therefore measured the way
   the design splits the work, on [twin]: the same deployment and its
   sets, in the simulator across the five EC2 regions.

   Traced, the server is assembled by [mirror] so that deliveries, timers,
   the handler and the backend run inside [Tracer] spans, with the
   profiler's loop phases switched on in the server domain. *)

open Mdcc_storage
module Loop = Mdcc_runtime_unix.Loop
module Server = Mdcc_wire.Server
module Handler = Mdcc_wire.Handler
module Backend = Mdcc_wire.Backend
module Runtime = Mdcc_core.Runtime
module Engine = Mdcc_sim.Engine
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator
module Storage_node = Mdcc_core.Storage_node
module Session = Mdcc_core.Session
module Messages = Mdcc_core.Messages
module Ctx = Mdcc_core.Ctx
module Obs = Mdcc_obs.Obs
module Prof = Mdcc_obs.Prof
module Registry = Mdcc_obs.Registry
module Json = Mdcc_obs.Json
module Rng = Mdcc_util.Rng

let nodes = 5
let conns = 2
let keys_per_conn = 500
let value_bytes = 64
let windows = 3

(* Set-up is sampled [setups_per_point] times before Phase A and after each
   window, so that its median covers the machine's speed over the whole
   run, not at one moment. *)
let setups_per_point = 3

(* Phase A rate (requests/s) and phase lengths (s); the virtual length of
   the twin's measured window (ms).  [full] fits a measured run of
   [seconds]. *)
type cfg = {
  rate : float;
  warmup_s : float;
  window_s : float;
  step_s : float;
  max_steps : int;
  twin_ms : float;
}

let full ~seconds =
  {
    rate = 8_000.0;
    warmup_s = 2.0;
    window_s = Float.max 1.0 ((seconds -. 2.0) /. Float.of_int windows);
    step_s = 3.0;
    max_steps = 20;
    twin_ms = 200_000.0;
  }

let toy =
  { rate = 2_000.0; warmup_s = 0.2; window_s = 0.3; step_s = 0.3; max_steps = 2; twin_ms = 5_000.0 }

(* Latency limit of a ladder step; the ladder's first rate and growth; the
   generator lateness (p99) above which a ladder step is rerun. *)
let limit_ms = 5.0
let ladder_start = 12_000.0
let ladder_factor = 1.1
let late_limit_ms = 1.0

(* ------------------------------------------------------------------ *)
(* Server side                                                          *)
(* ------------------------------------------------------------------ *)

(* Backend latency, call to continuation, per verb (traced only). *)
type backend_lat = { mutable gets : float list; mutable sets : float list }

type mark = {
  m_words : float;
  m_prof : Prof.snapshot;
  m_counters : (string * int) list;
  m_gc : Measure.gc;
}

type server = {
  lp : Loop.t;
  port : int;
  obs : Obs.t;
  shutdown : on_done:(unit -> unit) -> unit;
}

let of_server s =
  {
    lp = Server.loop s;
    port = Server.port s;
    obs = Server.obs s;
    shutdown = (fun ~on_done -> Server.shutdown s ~on_done);
  }

(* [Server.create ~nodes ~partitions:1 ~port:0] written out over a traced
   runtime, with the handler's [on_data] and continuations and the backend
   calls wrapped in spans.  The [stats] verb's field list is left empty:
   this workload never sends it. *)
let mirror tr lat ~seed =
  let partitions = 1 and table = "kv" in
  let storage_n = nodes * partitions in
  let lp = Loop.create ~seed ~dc_of:(fun id -> if id < storage_n then id / partitions else 0) () in
  let role node = if node < storage_n then "storage_node" else "coordinator" in
  let runtime = Layers.traced_runtime tr (Loop.runtime lp) ~role in
  let config = Config.make ~replication:nodes () in
  let schema = Schema.create [ { Schema.name = table; bounds = []; master_dc = 0 } ] in
  let observ = Obs.create () in
  let ctx = Ctx.make ~obs:observ ~local_nodes:(List.init partitions Fun.id) () in
  let partition_of key = Key.hash key mod partitions in
  let replicas key = List.init nodes (fun dc -> (dc * partitions) + partition_of key) in
  let master_of key =
    ((Hashtbl.hash (Key.to_string key ^ "#master") mod nodes) * partitions) + partition_of key
  in
  let storage =
    Array.init storage_n (fun i ->
        Storage_node.create ~runtime ~config ~node_id:i ~schema ~replicas ~master_of ~ctx ())
  in
  Tracer.span tr (Tracer.id tr "storage_node.start_maintenance") (fun () ->
      Array.iter Storage_node.start_maintenance storage);
  let snapshot =
    {
      Coordinator.snap_read =
        (fun key -> Store.read (Storage_node.store storage.(partition_of key)) key);
      snap_scan =
        (fun ~table ->
          let rows = ref [] in
          for p = partitions - 1 downto 0 do
            Store.iter (Storage_node.store storage.(p)) (fun key row ->
                if row.Store.exists && String.equal key.Key.table table then
                  rows := (key, row.Store.value, row.Store.version) :: !rows)
          done;
          !rows);
    }
  in
  let coord =
    Coordinator.create ~runtime ~config ~node_id:storage_n ~replicas ~master_of ~snapshot ~ctx ()
  in
  Loop.set_meter lp
    {
      Loop.w_size = Messages.size_of;
      w_on_send =
        (fun ~src ~dst:_ ~bytes ->
          Obs.incr observ (Printf.sprintf "net.sent.node%02d" src);
          Obs.incr observ ~by:bytes (Printf.sprintf "net.sent_bytes.node%02d" src));
      w_on_deliver =
        (fun ~src:_ ~dst ~bytes ->
          Obs.incr observ (Printf.sprintf "net.recv.node%02d" dst);
          Obs.incr observ ~by:bytes (Printf.sprintf "net.recv_bytes.node%02d" dst));
    };
  let txid = ref 0 in
  let next_txid () =
    incr txid;
    Printf.sprintf "wire%06d" !txid
  in
  let handler_id = Tracer.id tr "wire.handler" and backend_id = Tracer.id tr "wire.backend" in
  let timed record call k =
    let t0 = Unix.gettimeofday () in
    Tracer.span tr backend_id (fun () ->
        call (fun x ->
            record ((Unix.gettimeofday () -. t0) *. 1000.0);
            Tracer.span tr handler_id (fun () -> k x)))
  in
  let handlers = ref [] in
  let port =
    Loop.listen lp ~addr:"127.0.0.1" ~port:0 (fun conn ->
        let session = Session.create coord in
        let b =
          Backend.of_session ~table
            ~partition_of:(fun id -> partition_of (Key.make ~table ~id))
            ~obs:observ ~next_txid session
        in
        let backend =
          {
            b with
            Backend.b_get =
              (fun key level k ->
                timed (fun ms -> lat.gets <- ms :: lat.gets) (b.Backend.b_get key level) k);
            b_set =
              (fun ~key ~flags ~data k ->
                timed (fun ms -> lat.sets <- ms :: lat.sets) (b.Backend.b_set ~key ~flags ~data) k);
          }
        in
        let handler =
          Handler.create ~backend ~write:(fun s -> Loop.write conn s)
            ~close:(fun () -> Loop.close conn) ~obs:observ ()
        in
        handlers := handler :: !handlers;
        Obs.incr observ "wire.connections";
        {
          Loop.on_data =
            (fun buf off len ->
              Tracer.span tr handler_id (fun () -> Handler.on_data handler buf off len));
          on_close = (fun () -> handlers := List.filter (fun h -> h != handler) !handlers);
        })
  in
  let rec gauges () =
    Obs.set_gauge observ "wire.curr_connections" (Loop.open_conns lp);
    Obs.set_gauge observ "wire.buffered_bytes" (Loop.buffered_bytes lp);
    Obs.set_gauge observ "wire.max_conn_buffered" (Loop.max_conn_buffered lp);
    Obs.set_gauge observ "wire.timers_pending" (Loop.timers_pending lp);
    Obs.set_gauge observ "wire.uptime_ms" (int_of_float (Loop.now lp));
    Obs.set_gauge observ "coord.inflight" (Coordinator.inflight coord);
    ignore (Runtime.set_timer runtime ~after:250.0 gauges)
  in
  Runtime.spawn runtime gauges;
  let shutdown ~on_done =
    Loop.close_listeners lp;
    let rt = Loop.runtime lp in
    let deadline = Loop.now lp +. 5000.0 in
    let rec check () =
      let drained =
        List.for_all Handler.idle !handlers
        && Coordinator.inflight coord = 0
        && Loop.buffered_bytes lp = 0
      in
      if drained || Loop.now lp >= deadline then on_done ()
      else ignore (Runtime.set_timer rt ~after:5.0 check)
    in
    Runtime.spawn rt check
  in
  { lp; port; obs = observ; shutdown }

let create ~traced ~seed tr lat =
  if traced then mirror tr lat ~seed
  else of_server (Server.create ~seed ~nodes ~partitions:1 ~port:0 ())

(* A server and the domain running its loop. *)
type running = { srv : server; dom : unit Domain.t }

let start ~traced srv =
  let dom =
    Domain.spawn (fun () ->
        if traced then Prof.set_enabled (Prof.ambient ()) true;
        Loop.run srv.lp)
  in
  { srv; dom }

let stop r =
  Loop.post r.srv.lp (fun () -> r.srv.shutdown ~on_done:(fun () -> Loop.request_stop r.srv.lp));
  Domain.join r.dom

(* ------------------------------------------------------------------ *)
(* Load generator                                                       *)
(* ------------------------------------------------------------------ *)

(* Outcomes of the requests due inside one measurement window. *)
type window = {
  mutable gets : float list;  (* ms from due time to reply *)
  mutable sets : float list;
  mutable late : float list;  (* ms from due time to send *)
  mutable sent : int;
  mutable answered : int;
  mutable bad : int;  (* answered with an error, a malformed or a wrong reply *)
}

let new_window () = { gets = []; sets = []; late = []; sent = 0; answered = 0; bad = 0 }

type pending = {
  p_set : bool;
  p_key : string;
  p_expect : string;  (* get: the connection's last value sent for the key *)
  p_due : float;
  p_win : window;
}

type conn = {
  fd : Unix.file_descr;
  cid : int;
  out : Buffer.t;
  mutable out_off : int;
  mutable inbuf : Bytes.t;
  mutable in_pos : int;
  mutable in_len : int;
  fifo : pending Queue.t;
  last : string array;  (* per key index: last value sent *)
  mutable seq : int;
}

type gen = {
  cs : conn array;
  rng : Rng.t;
  zipf : float array;  (* cumulative weights over key ranks *)
  mutable next_due : float;
  mutable malformed : int;
  mutable mismatches : int;
  mutable err_samples : string list;
}

let zipf_cdf n s =
  let w = Array.init n (fun k -> 1.0 /. (Float.of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let key_name c k = Printf.sprintf "b%d-%d" c.cid k

let value_of c =
  c.seq <- c.seq + 1;
  let stamp = Printf.sprintf "c%d.%d/" c.cid c.seq in
  stamp ^ String.make (value_bytes - String.length stamp) '.'

let note g fmt =
  Printf.ksprintf
    (fun s -> if List.length g.err_samples < 5 then g.err_samples <- s :: g.err_samples)
    fmt

let connect port cid =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd TCP_NODELAY true;
  Unix.set_nonblock fd;
  {
    fd;
    cid;
    out = Buffer.create 4096;
    out_off = 0;
    inbuf = Bytes.create 65536;
    in_pos = 0;
    in_len = 0;
    fifo = Queue.create ();
    last = Array.make keys_per_conn "";
    seq = 0;
  }

let enqueue c ~set ~k ~due ~win =
  let key = key_name c k in
  if set then begin
    let v = value_of c in
    c.last.(k) <- v;
    Printf.bprintf c.out "set %s 0 0 %d\r\n%s\r\n" key value_bytes v
  end
  else Printf.bprintf c.out "get %s\r\n" key;
  Queue.add { p_set = set; p_key = key; p_expect = c.last.(k); p_due = due; p_win = win } c.fifo;
  win.sent <- win.sent + 1

let flush c =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 then begin
    match Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len with
    | n ->
      c.out_off <- c.out_off + n;
      if c.out_off = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
  end

let find_crlf c from =
  let rec go i =
    if i + 1 >= c.in_len then None
    else if Bytes.get c.inbuf i = '\r' && Bytes.get c.inbuf (i + 1) = '\n' then Some i
    else go (i + 1)
  in
  go from

(* A reply to [p] arrived at [now]; [ok] when it was well-formed and
   correct.  Only good replies carry a latency. *)
let complete p ~now ~ok =
  let w = p.p_win in
  w.answered <- w.answered + 1;
  let ms = (now -. p.p_due) *. 1000.0 in
  if not ok then w.bad <- w.bad + 1
  else if p.p_set then w.sets <- ms :: w.sets
  else w.gets <- ms :: w.gets

(* Consume every complete reply at the head of the connection's buffer.
   A [SERVER_ERROR] reply is well-formed but failed; a malformed or wrong
   reply also fails the run's output check. *)
let rec parse g c ~now =
  if not (Queue.is_empty c.fifo) then
    match find_crlf c c.in_pos with
    | None -> ()
    | Some eol ->
      let line = Bytes.sub_string c.inbuf c.in_pos (eol - c.in_pos) in
      let p = Queue.peek c.fifo in
      let take n = c.in_pos <- n in
      let server_error = String.length line >= 12 && String.sub line 0 12 = "SERVER_ERROR" in
      if p.p_set then begin
        take (eol + 2);
        ignore (Queue.pop c.fifo);
        if (not (String.equal line "STORED")) && not server_error then begin
          g.malformed <- g.malformed + 1;
          note g "set %s: unexpected reply %S" p.p_key line
        end;
        complete p ~now ~ok:(String.equal line "STORED");
        parse g c ~now
      end
      else if String.equal line "END" || server_error then begin
        take (eol + 2);
        ignore (Queue.pop c.fifo);
        if not server_error then begin
          g.mismatches <- g.mismatches + 1;
          note g "get %s: miss, expected %S" p.p_key p.p_expect
        end;
        complete p ~now ~ok:false;
        parse g c ~now
      end
      else begin
        match String.split_on_char ' ' line with
        | [ "VALUE"; key; _flags; n ] when int_of_string_opt n <> None ->
          let n = int_of_string n in
          let data_at = eol + 2 in
          let end_at = data_at + n + 2 in
          if end_at + 5 <= c.in_len then begin
            let data = Bytes.sub_string c.inbuf data_at n in
            let tail = Bytes.sub_string c.inbuf (data_at + n) 7 in
            take (end_at + 5);
            ignore (Queue.pop c.fifo);
            let well_formed = String.equal tail "\r\nEND\r\n" && String.equal key p.p_key in
            let right = String.equal data p.p_expect in
            if not well_formed then begin
              g.malformed <- g.malformed + 1;
              note g "get %s: malformed VALUE block" p.p_key
            end
            else if not right then begin
              g.mismatches <- g.mismatches + 1;
              note g "get %s: got %S, expected %S" p.p_key data p.p_expect
            end;
            complete p ~now ~ok:(well_formed && right);
            parse g c ~now
          end
        | _ ->
          take (eol + 2);
          ignore (Queue.pop c.fifo);
          g.malformed <- g.malformed + 1;
          note g "get %s: unexpected reply %S" p.p_key line;
          complete p ~now ~ok:false;
          parse g c ~now
      end

let read_ready g c =
  if c.in_pos > 0 && (c.in_pos = c.in_len || c.in_len > Bytes.length c.inbuf / 2) then begin
    Bytes.blit c.inbuf c.in_pos c.inbuf 0 (c.in_len - c.in_pos);
    c.in_len <- c.in_len - c.in_pos;
    c.in_pos <- 0
  end;
  if c.in_len = Bytes.length c.inbuf then begin
    let bigger = Bytes.create (2 * Bytes.length c.inbuf) in
    Bytes.blit c.inbuf 0 bigger 0 c.in_len;
    c.inbuf <- bigger
  end;
  match Unix.read c.fd c.inbuf c.in_len (Bytes.length c.inbuf - c.in_len) with
  | 0 -> failwith "server closed the connection"
  | n ->
    c.in_len <- c.in_len + n;
    parse g c ~now:(Unix.gettimeofday ())
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()

(* Wait at most [timeout] seconds for socket activity and handle it. *)
let poll g timeout =
  let fds = Array.to_list (Array.map (fun c -> c.fd) g.cs) in
  let writes =
    List.filter_map
      (fun c -> if Buffer.length c.out > c.out_off then Some c.fd else None)
      (Array.to_list g.cs)
  in
  match Unix.select fds writes [] timeout with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | readable, writable, _ ->
    Array.iter
      (fun c ->
        if List.memq c.fd writable then flush c;
        if List.memq c.fd readable then read_ready g c)
      g.cs

let outstanding g = Array.fold_left (fun acc c -> acc + Queue.length c.fifo) 0 g.cs

(* Send requests on the Poisson schedule at [rate] for [duration] seconds
   of due time, all attributed to [win]. *)
let run_for g ~rate ~duration win =
  let t_end = g.next_due +. duration in
  while g.next_due < t_end do
    let now = Unix.gettimeofday () in
    if g.next_due <= now then begin
      while g.next_due <= now && g.next_due < t_end do
        let c = g.cs.(Rng.int g.rng conns) in
        let set = Rng.float g.rng 1.0 < 0.2 in
        let k = zipf_pick g.zipf (Rng.float g.rng 1.0) in
        enqueue c ~set ~k ~due:g.next_due ~win;
        win.late <- ((now -. g.next_due) *. 1000.0) :: win.late;
        g.next_due <- g.next_due +. Rng.exponential g.rng ~mean:(1.0 /. rate)
      done;
      Array.iter flush g.cs
    end;
    poll g (Float.max 0.0 (Float.min (g.next_due -. Unix.gettimeofday ()) 0.05))
  done

(* Wait up to [max_s] seconds for every outstanding reply. *)
let drain g ~max_s =
  let deadline = Unix.gettimeofday () +. max_s in
  while outstanding g > 0 && Unix.gettimeofday () < deadline do
    Array.iter flush g.cs;
    poll g 0.01
  done

(* Set every key of every connection once, driving the server's loop from
   this domain: set-up then runs on one domain, so its CPU time does not
   depend on how two domains meet at stop-the-world collections. *)
let preload srv g =
  let win = new_window () in
  let now = Unix.gettimeofday () in
  Array.iter
    (fun c ->
      for k = 0 to keys_per_conn - 1 do
        enqueue c ~set:true ~k ~due:now ~win
      done)
    g.cs;
  let deadline = now +. 30.0 in
  while outstanding g > 0 && Unix.gettimeofday () < deadline do
    Array.iter flush g.cs;
    Loop.poll srv.lp ~max_wait_ms:0.0;
    poll g 0.0
  done;
  win

let close_gen g =
  Array.iter
    (fun c ->
      (try
         Unix.clear_nonblock c.fd;
         ignore (Unix.write_substring c.fd "quit\r\n" 0 6)
       with Unix.Unix_error _ -> ());
      try Unix.close c.fd with Unix.Unix_error _ -> ())
    g.cs

(* ------------------------------------------------------------------ *)
(* One repetition                                                       *)
(* ------------------------------------------------------------------ *)

let pct xs p = Measure.percentile xs p

(* Phase B: climb from [ladder_start] by 10 % per step while a step keeps
   get and set p99 within [limit_ms] and answers 99 % of its requests
   well.  A step on which the generator itself ran more than
   [late_limit_ms] late (p99) measured the machine, not the server: it is
   rerun, twice at most.  Returns the last passing rate (0 if none) and
   the steps run. *)
let ladder cfg g =
  let rec step rate reruns best steps =
    if List.length steps >= cfg.max_steps then (best, steps)
    else begin
      let win = new_window () in
      g.next_due <- Unix.gettimeofday ();
      run_for g ~rate ~duration:cfg.step_s win;
      drain g ~max_s:1.0;
      let late = pct win.late 99.0 in
      let good = Measure.ratio_i (win.answered - win.bad) win.sent in
      let ok = good >= 0.99 && pct win.gets 99.0 <= limit_ms && pct win.sets 99.0 <= limit_ms in
      let steps = (rate, ok, late, win) :: steps in
      if late > late_limit_ms && reruns < 2 then begin
        drain g ~max_s:5.0;
        step rate (reruns + 1) best steps
      end
      else if ok then step (rate *. ladder_factor) 0 rate steps
      else (best, steps)
    end
  in
  let best, steps = step ladder_start 0 0.0 [] in
  drain g ~max_s:10.0;
  (best, List.rev steps)

(* The wire deployment in the simulator: [Server.create]'s shape (five
   replicas, one partition, its configuration and table) over the
   simulated network of the five EC2 regions, keys loaded as the preload
   leaves them.  Each connection becomes a closed-loop client with its
   own [Session] on the DC-0 coordinator, as in the server, writing its
   own key slice the way [Backend]'s [set] does: a session read, then a
   single-key write.  Keys are uniform, not Zipf: a closed-loop client
   rewriting a hot key 170 ms away would collide with its own previous,
   still outstanding write and put the key through classic ballots, a
   regime that depends on run length and that the in-process server never
   enters.  Returns the virtual submit-to-decision latency (ms) of every
   commit submitted in the measured window. *)
let twin cfg ~seed =
  let table = "kv" and warmup = 2_000.0 in
  let engine = Engine.create ~seed in
  let schema = Schema.create [ { Schema.name = table; bounds = []; master_dc = 0 } ] in
  let cluster =
    Cluster.create ~engine ~spec:Cluster.Spec.default ~config:(Config.make ~replication:nodes ())
      ~schema ()
  in
  let id conn k = Printf.sprintf "b%d-%d" conn k in
  let data stamp = stamp ^ String.make (value_bytes - String.length stamp) '.' in
  Cluster.load cluster
    (List.concat
       (List.init conns (fun conn ->
            List.init keys_per_conn (fun k ->
                ( Key.make ~table ~id:(id conn k),
                  Value.of_list [ ("data", Value.Str (data "init/")); ("flags", Value.Int 0) ] )))));
  Cluster.start_maintenance cluster;
  let coord = Cluster.coordinator cluster ~dc:0 ~rank:0 in
  let txid = ref 0 in
  let next_txid () =
    incr txid;
    Printf.sprintf "twin%06d" !txid
  in
  let t_end = warmup +. cfg.twin_ms in
  let latencies = ref [] in
  for conn = 0 to conns - 1 do
    let session = Session.create coord in
    let rng = Rng.create ((seed * 7919) + 13 + conn) in
    let rec next () =
      if Engine.now engine < t_end then begin
        let key = Key.make ~table ~id:(id conn (Rng.int rng keys_per_conn)) in
        Session.read session key (fun cur ->
            let txid = next_txid () in
            let value = Value.of_list [ ("data", Value.Str (data txid)); ("flags", Value.Int 0) ] in
            let update =
              match cur with
              | Some (_, vread) -> Update.Physical { vread; value }
              | None -> Update.Insert value
            in
            let t0 = Engine.now engine in
            Session.submit session (Txn.make ~id:txid ~updates:[ (key, update) ])
              (fun outcome ->
                if outcome = Txn.Committed && t0 >= warmup then
                  latencies := (Engine.now engine -. t0) :: !latencies;
                next ()))
      end
    in
    next ()
  done;
  Engine.run ~until:(t_end +. 20_000.0) engine;
  !latencies

let run cfg ~seed ~traced ~with_ladder =
  let tr = Tracer.create () in
  let lat = { gets = []; sets = [] } in
  let g_of port =
    {
      cs = Array.init conns (fun i -> connect port i);
      rng = Rng.create ((seed * 7919) + 11);
      zipf = zipf_cdf keys_per_conn 0.99;
      next_due = 0.0;
      malformed = 0;
      mismatches = 0;
      err_samples = [];
    }
  in
  (* Set-up: deploy, connect, preload. *)
  let set_up () =
    let (srv, g, pre), s =
      Measure.normalized (fun () ->
          let srv = create ~traced ~seed tr lat in
          let g = g_of srv.port in
          (srv, g, preload srv g))
    in
    (srv, g, pre, s)
  in
  (* Untraced, further set-ups are timed and shut down at once, the loop
     driven from this domain; the measured server idles meanwhile. *)
  let setup_times = ref [] in
  let sample ~n =
    if not traced then
      for _ = 1 to n do
        let srv, g, _, dt = set_up () in
        setup_times := dt :: !setup_times;
        close_gen g;
        Loop.post srv.lp (fun () -> srv.shutdown ~on_done:(fun () -> Loop.request_stop srv.lp));
        Loop.run srv.lp
      done
  in
  sample ~n:(setups_per_point - 1);
  let srv, g, pre, dt = set_up () in
  setup_times := dt :: !setup_times;
  let r = start ~traced srv in
  (* Server-side marks, taken on the loop domain around Phase A. *)
  let marks = Array.make 2 None in
  let mark i =
    Loop.post r.srv.lp (fun () ->
        if i = 0 && traced then begin
          Tracer.reset tr;
          lat.gets <- [];
          lat.sets <- []
        end;
        marks.(i) <-
          Some
            {
              m_words = Gc.minor_words ();
              m_prof = Prof.capture (Prof.ambient ());
              m_counters = Registry.counter_bindings (Obs.registry r.srv.obs);
              m_gc = Measure.gc ();
            })
  in
  let warm = new_window () in
  g.next_due <- Unix.gettimeofday ();
  run_for g ~rate:cfg.rate ~duration:cfg.warmup_s warm;
  mark 0;
  let wins = List.init windows (fun _ -> new_window ()) in
  (* Process CPU (server and generator) per window.  Each window's replies
     are in before set-up is sampled. *)
  let cpus =
    List.map
      (fun w ->
        g.next_due <- Unix.gettimeofday ();
        let c0 = Measure.cpu_s () in
        run_for g ~rate:cfg.rate ~duration:cfg.window_s w;
        let cpu = Measure.cpu_s () -. c0 in
        drain g ~max_s:10.0;
        sample ~n:setups_per_point;
        cpu)
      wins
  in
  mark 1;
  let max_rate, steps = if with_ladder then ladder cfg g else (0.0, []) in
  let ladder_wins = List.map (fun (_, _, _, w) -> w) steps in
  drain g ~max_s:10.0;
  let unanswered = outstanding g in
  close_gen g;
  stop r;
  let peak = Measure.peak_heap_mb () in
  let twin_lat = if traced then [] else twin cfg ~seed in
  let m0, m1 =
    match (marks.(0), marks.(1)) with
    | Some a, Some b -> (a, b)
    | _ -> failwith "wire: server marks missing"
  in
  let all = (pre :: warm :: wins) @ ladder_wins in
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 all in
  let sent = sum (fun w -> w.sent) and bad = sum (fun w -> w.bad) in
  let good = sum (fun w -> w.answered) - bad in
  let answered = List.fold_left (fun acc w -> acc + w.answered) 0 wins in
  let reqs = Float.of_int answered in
  let per_op x = Measure.ratio x reqs in
  (* Each latency is the median of the windows' values. *)
  let by_window f p = Measure.median (List.map (fun w -> pct (f w) p) wins) in
  let get_p50 = by_window (fun w -> w.gets) 50.0 and get_p99 = by_window (fun w -> w.gets) 99.0 in
  let set_p50 = by_window (fun w -> w.sets) 50.0 and set_p99 = by_window (fun w -> w.sets) 99.0 in
  let lates = List.concat_map (fun w -> w.late) wins in
  let sets = Float.of_int (List.fold_left (fun acc w -> acc + List.length w.sets) 0 wins) in
  let cpu = List.fold_left ( +. ) 0.0 cpus in
  let gc = Measure.gc_diff m0.m_gc m1.m_gc in
  let cdiff prefix =
    Float.of_int (Layers.counter_sum m1.m_counters prefix - Layers.counter_sum m0.m_counters prefix)
  in
  let c name =
    let v l = Option.value (List.assoc_opt name l) ~default:0 in
    Float.of_int (v m1.m_counters - v m0.m_counters)
  in
  let msgs = cdiff "net.sent.node" in
  let errors =
    (if g.malformed > 0 then [ Printf.sprintf "%d malformed replies" g.malformed ] else [])
    @ (if g.mismatches > 0 then
         [ Printf.sprintf "%d gets did not return the last value set" g.mismatches ]
       else [])
    @ List.rev g.err_samples
  in
  let headline =
    [
      ("setup_s", Measure.median !setup_times);
      ("vt_commit_p50_ms", pct twin_lat 50.0);
      ("vt_commit_p99_ms", pct twin_lat 99.0);
      ("success_frac", Measure.ratio_i good sent);
      ("msgs_per_op", per_op msgs);
      ("minor_words_per_op", per_op (m1.m_words -. m0.m_words));
      ("peak_heap_mb", peak);
      ( "ops_per_cpu_s",
        Measure.median
          (List.map2 (fun w c -> Measure.ratio (Float.of_int w.answered) c) wins cpus) );
      ("get_p50_ms", get_p50);
      ("get_p99_ms", get_p99);
      ("set_p50_ms", set_p50);
      ("set_p99_ms", set_p99);
      ("gen.late_p99_ms", pct lates 99.0);
      ("gen.late_max_ms", pct lates 100.0);
    ]
  in
  let commits = c "fast_commit" +. c "assisted_commit" in
  let counters =
    [
      ("net.bytes_per_op", per_op (cdiff "net.sent_bytes.node"));
      ("workload.reads_per_op", per_op (c "read_local" +. c "read_majority"));
      ( "workload.abort_frac",
        Measure.ratio (c "abort_conflict" +. c "abort_constraint")
          (commits +. c "abort_conflict" +. c "abort_constraint") );
      ("wire.msgs_per_set", Measure.ratio msgs sets);
      ("wire.bytes_per_req", per_op (c "wire.bytes_read" +. c "wire.bytes_written"));
    ]
    @ (if with_ladder then [ ("wire.max_rate_rps", max_rate) ] else [])
    @ Layers.counter_metrics ~c ~per_op
    @ Layers.gc_metrics gc ~per_op
  in
  let layers =
    if not traced then []
    else begin
      let phase name =
        let find (m : mark) =
          let phases = m.m_prof.Prof.sn_phases in
          match List.find_opt (fun ph -> String.equal ph.Prof.ph_path name) phases with
          | Some ph -> (ph.Prof.ph_wall_ms /. 1000.0, ph.Prof.ph_minor_words, ph.Prof.ph_count)
          | None -> (0.0, 0.0, 0)
        in
        let s1, w1, n1 = find m1 and s0, w0, n0 = find m0 in
        (s1 -. s0, w1 -. w0, n1 - n0)
      in
      let sel_s, _, polls = phase "loop.select" in
      let io_s, io_w, _ = phase "loop.io" and tim_s, tim_w, _ = phase "loop.timers" in
      let drn_s, drn_w, _ = phase "loop.drain" in
      let busy_s = io_s +. tim_s +. drn_s and busy_w = io_w +. tim_w +. drn_w in
      let total_s = busy_s +. sel_s in
      let events = Float.of_int (Tracer.top_count tr) in
      let frac s = Measure.ratio s total_s in
      let _, handler_s, _ = Tracer.named tr "wire.handler" in
      [
        ("runtime.events_per_op", per_op events);
        ("runtime.self_us_per_event", 1e6 *. Measure.ratio (busy_s -. Tracer.top_s tr) events);
        ("runtime.words_per_event", Measure.ratio (busy_w -. Tracer.top_words tr) events);
        ("wire.handler_self_frac", frac handler_s);
        ("wire.backend_get_frac", Measure.ratio (Measure.median lat.gets) get_p50);
        ("wire.backend_set_frac", Measure.ratio (Measure.median lat.sets) set_p50);
        ("loop.select_frac", frac sel_s);
        ("loop.io_frac", frac io_s);
        ("loop.timers_frac", frac tim_s);
        ("loop.drain_frac", frac drn_s);
        ("loop.polls_per_req", per_op (Float.of_int polls));
      ]
      @ Layers.metrics tr ~frac ~per_op
    end
  in
  {
    Rep.attempted = sent;
    failed = bad + unanswered;
    errors;
    values = headline @ counters @ layers;
    det = [];
    cpu_s = cpu;
    info =
      [
        ("requests", Json.Int answered);
        ("setup_samples", Json.List (List.rev_map (fun s -> Json.Float s) !setup_times));
        ("twin_commits", Json.Int (List.length twin_lat));
        ( "windows",
          Json.List
            (List.map
               (fun w ->
                 Json.Obj
                   [
                     ("get_p50_ms", Json.Float (pct w.gets 50.0));
                     ("get_p99_ms", Json.Float (pct w.gets 99.0));
                     ("set_p50_ms", Json.Float (pct w.sets 50.0));
                     ("set_p99_ms", Json.Float (pct w.sets 99.0));
                     ("late_p99_ms", Json.Float (pct w.late 99.0));
                   ])
               wins) );
        ( "ladder",
          Json.List
            (List.map
               (fun (rate, ok, late, _) ->
                 Json.Obj
                   [
                     ("rate", Json.Float rate);
                     ("ok", Json.Bool ok);
                     ("late_p99_ms", Json.Float late);
                   ])
               steps) );
      ];
  }
