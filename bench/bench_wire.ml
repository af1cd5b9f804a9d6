(* bench_wire: pipelined load generator for the wire front-end.

     dune exec bench/bench_wire.exe -- --self-host --conns 4 --depth 8 --ops 2000
     dune exec bench/bench_wire.exe -- --port 11311 --conns 8 --ops 10000

   Drives [conns] client domains against an MDCC wire server — an external
   one (--addr/--port) or an in-process one booted on an ephemeral port
   (--self-host) — each keeping [depth] requests in flight on one TCP
   connection, alternating set and get over a private key slice.  After
   the measured phase every connection reads back each key it wrote with
   [gets] and checks the data equals its last acknowledged write: with
   per-connection sessions (read-your-writes) a mismatch is a server bug,
   not a benchmark artifact.

   The measurement (req/s, latency p50/p99/p999, error counts) is written
   as an Envelope (--out, default BENCH_wire.json; bench "wire", one
   section "load").  The self-hosted server has 5 replicas and values
   are 64 bytes.  Exit status 1 if any protocol or consistency error was
   observed — the CI smoke job relies on that. *)

module Json = Mdcc_obs.Json
module Stats = Mdcc_util.Stats
module Envelope = Mdcc_bench.Envelope
module Server = Mdcc_wire.Server
module Loop = Mdcc_runtime_unix.Loop

type conn_result = {
  latencies : float array;  (* seconds per request, completion order *)
  protocol_errors : int;
  consistency_errors : int;
  requests : int;
}

(* ---------------- reply reader ---------------- *)

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let read_line_cr ic = strip_cr (input_line ic)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let is_protocol_error line =
  starts_with ~prefix:"ERROR" line
  || starts_with ~prefix:"CLIENT_ERROR" line
  || starts_with ~prefix:"SERVER_ERROR" line

(* Read one reply to a [get]/[gets]: VALUE blocks then END, or an error
   line.  Returns the data of the first VALUE (None on miss/error). *)
let read_get_reply ic errors =
  let rec go first =
    let line = read_line_cr ic in
    if String.equal line "END" then first
    else if is_protocol_error line then begin
      incr errors;
      first
    end
    else
      match String.split_on_char ' ' line with
      | "VALUE" :: _key :: _flags :: bytes :: _ ->
        let n = int_of_string bytes in
        let data = really_input_string ic n in
        let _crlf = really_input_string ic 2 in
        go (if first = None then Some data else first)
      | _ ->
        incr errors;
        go first
  in
  go None

let read_store_reply ic errors =
  let line = read_line_cr ic in
  if not (String.equal line "STORED") then incr errors

(* ---------------- one client connection ---------------- *)

type op = Op_set of { key : string; data : string } | Op_get of { key : string }

let nodes = 5
let value_bytes = 64
let value_pad = String.make value_bytes '.'

let run_conn ~addr ~port ~ops ~depth ~keys conn_id =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string addr, port));
  (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let key i = Printf.sprintf "c%d:k%d" conn_id (i mod keys) in
  let value i =
    let stamp = Printf.sprintf "v%d.%d/" conn_id i in
    if String.length stamp >= value_bytes then stamp
    else stamp ^ String.sub value_pad 0 (value_bytes - String.length stamp)
  in
  let op_of i = if i mod 2 = 0 then Op_set { key = key i; data = value i } else Op_get { key = key i } in
  let last_write = Hashtbl.create 64 in
  let latencies = Array.make ops 0.0 in
  let errors = ref 0 in
  let inflight = Queue.create () in
  let completed = ref 0 in
  let send i =
    let op = op_of i in
    (match op with
    | Op_set { key; data } ->
      Printf.fprintf oc "set %s 0 0 %d\r\n" key (String.length data);
      output_string oc data;
      output_string oc "\r\n"
    | Op_get { key } -> Printf.fprintf oc "get %s\r\n" key);
    flush oc;
    Queue.add (op, Unix.gettimeofday ()) inflight
  in
  let complete () =
    let op, t0 = Queue.pop inflight in
    (match op with
    | Op_set { key; data } ->
      read_store_reply ic errors;
      Hashtbl.replace last_write key data
    | Op_get _ -> ignore (read_get_reply ic errors));
    latencies.(!completed) <- Unix.gettimeofday () -. t0;
    incr completed
  in
  let sent = ref 0 in
  while !completed < ops do
    while !sent < ops && Queue.length inflight < depth do
      send !sent;
      incr sent
    done;
    complete ()
  done;
  (* readback: every key this connection wrote, through the same session *)
  let consistency = ref 0 in
  let written = Hashtbl.fold (fun k v acc -> (k, v) :: acc) last_write [] in
  let written = List.sort compare written in
  List.iter
    (fun (k, expect) ->
      Printf.fprintf oc "gets %s\r\n" k;
      flush oc;
      match read_get_reply ic errors with
      | Some data when String.equal data expect -> ()
      | Some _ | None -> incr consistency)
    written;
  output_string oc "quit\r\n";
  (try flush oc with Sys_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  {
    latencies;
    protocol_errors = !errors;
    consistency_errors = !consistency;
    requests = ops + List.length written;
  }

(* ---------------- aggregation ---------------- *)

let bench ~addr ~port ~self_host ~partitions ~conns ~depth ~ops ~keys ~out =
  let server =
    if not self_host then None
    else begin
      let srv = Server.create ~nodes ~partitions ~port:0 () in
      let d = Domain.spawn (fun () -> Server.run srv) in
      Some (srv, d)
    end
  in
  let port = match server with Some (srv, _) -> Server.port srv | None -> port in
  Printf.printf "bench_wire: %d conns x depth %d x %d ops -> %s:%d%s\n%!" conns depth ops
    addr port
    (if self_host then
       Printf.sprintf " (self-hosted, %d nodes x %d partitions)" nodes partitions
     else "");
  let t0 = Unix.gettimeofday () in
  let domains =
    List.init conns (fun i ->
        Domain.spawn (fun () -> run_conn ~addr ~port ~ops ~depth ~keys i))
  in
  let results = List.map Domain.join domains in
  let wall_s = Unix.gettimeofday () -. t0 in
  (match server with
  | Some (srv, d) ->
    Loop.post (Server.loop srv) (fun () ->
        Server.shutdown srv ~on_done:(fun () -> Loop.request_stop (Server.loop srv)));
    Domain.join d
  | None -> ());
  let requests = List.fold_left (fun acc r -> acc + r.requests) 0 results in
  let protocol_errors = List.fold_left (fun acc r -> acc + r.protocol_errors) 0 results in
  let consistency_errors =
    List.fold_left (fun acc r -> acc + r.consistency_errors) 0 results
  in
  let sorted = Array.concat (List.map (fun r -> r.latencies) results) in
  Array.sort Float.compare sorted;
  let req_s = Float.of_int requests /. wall_s in
  let ms p = Stats.percentile sorted p *. 1000.0 in
  Envelope.write out ~bench:"wire"
    ~config:
      [
        ("conns", Json.Int conns);
        ("depth", Json.Int depth);
        ("ops_per_conn", Json.Int ops);
        ("keys_per_conn", Json.Int keys);
        ("value_bytes", Json.Int value_bytes);
        ("self_host", Json.Bool self_host);
        ("nodes", Json.Int nodes);
        ("partitions", Json.Int partitions);
      ]
    [
      ( "load",
        [
          ("requests", Float.of_int requests);
          ("wall_s", wall_s);
          ("req_s", req_s);
          ("p50_ms", ms 50.0);
          ("p99_ms", ms 99.0);
          ("p999_ms", ms 99.9);
          ("protocol_errors", Float.of_int protocol_errors);
          ("consistency_errors", Float.of_int consistency_errors);
        ] );
    ];
  Printf.printf
    "  %d requests in %.2fs = %.0f req/s  p50 %.2fms  p99 %.2fms  p99.9 %.2fms\n"
    requests wall_s req_s (ms 50.0) (ms 99.0) (ms 99.9);
  Printf.printf "  protocol errors: %d, readback mismatches: %d -> %s\n%!" protocol_errors
    consistency_errors out;
  if protocol_errors > 0 || consistency_errors > 0 then begin
    prerr_endline "bench_wire: FAILED (errors observed)";
    1
  end
  else 0

open Cmdliner

let addr_arg = Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~docv:"ADDR")
let port_arg = Arg.(value & opt int 11311 & info [ "port" ] ~docv:"PORT")

let self_host_arg =
  Arg.(value & flag & info [ "self-host" ] ~doc:"Boot an in-process server on an ephemeral port.")

let partitions_arg =
  Arg.(
    value & opt int 1
    & info [ "partitions" ] ~docv:"P" ~doc:"Keyspace hash partitions of the self-hosted server.")
let conns_arg = Arg.(value & opt int 4 & info [ "conns" ] ~docv:"C")
let depth_arg = Arg.(value & opt int 8 & info [ "depth" ] ~docv:"D" ~doc:"Pipeline depth.")
let ops_arg = Arg.(value & opt int 2000 & info [ "ops" ] ~docv:"OPS" ~doc:"Ops per connection.")
let keys_arg = Arg.(value & opt int 64 & info [ "keys" ] ~docv:"K" ~doc:"Key-slice size per connection.")
let out_arg = Arg.(value & opt string "BENCH_wire.json" & info [ "out" ] ~docv:"FILE")

let cmd =
  let run addr port self_host partitions conns depth ops keys out =
    bench ~addr ~port ~self_host ~partitions ~conns ~depth ~ops ~keys ~out
  in
  Cmd.v
    (Cmd.info "bench_wire" ~doc:"Pipelined load generator for the MDCC wire front-end")
    Term.(
      const run $ addr_arg $ port_arg $ self_host_arg $ partitions_arg $ conns_arg $ depth_arg
      $ ops_arg $ keys_arg $ out_arg)

let () = exit (Cmd.eval' cmd)
