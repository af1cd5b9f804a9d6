(* mdcc-server: the MDCC key/value store behind a memcached-style socket.

     dune exec bin/server_cli.exe -- --nodes 5 --port 11311
     printf 'set greeting 0 0 5\r\nhello\r\nget greeting\r\nquit\r\n' | nc 127.0.0.1 11311

   Boots an N-replica MDCC deployment (every replica in-process,
   --partitions storage nodes per simulated data center, one coordinator)
   over the real socket runtime and serves the ASCII wire protocol of
   docs/WIRE.md.

   SIGTERM / SIGINT trigger a graceful drain: stop accepting, finish
   in-flight requests and transactions, flush replies, exit 0. *)

module Loop = Mdcc_runtime_unix.Loop
module Server = Mdcc_wire.Server

(* Signal handlers only flip this flag: a handler runs at whatever point
   the main domain reached, perhaps mid-way through an engine dispatch or
   holding [Loop.post]'s mutex, so it must not touch loop state itself.  The main loop polls the flag; select's EINTR (or
   the 50 ms poll cap) bounds the reaction latency. *)
let want_shutdown = Atomic.make false

let serve nodes partitions port addr =
  if nodes < 3 then begin
    Printf.eprintf "server_cli: --nodes must be >= 3 (got %d)\n" nodes;
    exit 2
  end;
  if partitions < 1 then begin
    Printf.eprintf "server_cli: --partitions must be >= 1 (got %d)\n" partitions;
    exit 2
  end;
  if port < 0 || port > 65535 then begin
    Printf.eprintf "server_cli: --port must be in [0, 65535] (got %d)\n" port;
    exit 2
  end;
  let srv =
    match Server.create ~nodes ~partitions ~addr ~port () with
    | srv -> srv
    | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "server_cli: cannot listen on %s:%d: %s\n" addr port
        (Unix.error_message err);
      exit 2
  in
  let lp = Server.loop srv in
  Printf.printf "LISTENING %d\n%!" (Server.port srv);
  let on_signal _ = Atomic.set want_shutdown true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let draining = ref false in
  while not (Loop.stop_requested lp) do
    if Atomic.get want_shutdown && not !draining then begin
      draining := true;
      prerr_endline "server_cli: draining";
      Server.shutdown srv ~on_done:(fun () -> Loop.request_stop lp)
    end;
    Loop.poll lp ~max_wait_ms:50.0
  done;
  0

open Cmdliner

let nodes_arg =
  Arg.(value & opt int 5 & info [ "nodes" ] ~docv:"N" ~doc:"Replication factor (>= 3).")

let partitions_arg =
  Arg.(
    value & opt int 1
    & info [ "partitions" ] ~docv:"N"
        ~doc:
          "Keyspace hash partitions (>= 1).  The deployment runs N storage nodes per \
           simulated data center; keys route to their partition's replica group, and \
           $(b,stats detail) exposes per-partition counters.")

let port_arg =
  Arg.(
    value & opt int 11311
    & info [ "port" ] ~docv:"PORT" ~doc:"TCP port in [0, 65535]; 0 binds an ephemeral port.")

let addr_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~docv:"ADDR" ~doc:"Bind address.")

let cmd =
  let doc = "MDCC key/value server speaking the memcached-style wire protocol" in
  Cmd.v
    (Cmd.info "mdcc-server" ~doc)
    Term.(const serve $ nodes_arg $ partitions_arg $ port_arg $ addr_arg)

let () = exit (Cmd.eval' cmd)
