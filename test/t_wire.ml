(* Wire front-end tests: the timer wheel, the incremental parser under
   arbitrary chunk boundaries and malformed input, the connection handler
   over a synchronous fake backend, the full wire stack over the *simulated*
   runtime (pinning that the protocol layer is runtime-agnostic), the
   socket loop's Messages.size_of byte metering, and the server binary's
   SIGTERM graceful drain. *)

module Wheel = Mdcc_runtime_unix.Timer_wheel
module Loop = Mdcc_runtime_unix.Loop
module Runtime = Mdcc_core.Runtime
module Messages = Mdcc_core.Messages
module Config = Mdcc_core.Config
module Cluster = Mdcc_core.Cluster
module Session = Mdcc_core.Session
module Engine = Mdcc_sim.Engine
module Rng = Mdcc_util.Rng
module Protocol = Mdcc_wire.Protocol
module Parser = Mdcc_wire.Parser
module Backend = Mdcc_wire.Backend
module Handler = Mdcc_wire.Handler
open Mdcc_storage

(* ---------------- timer wheel ---------------- *)

let test_wheel_order () =
  let w = Wheel.create ~now:0.0 () in
  let fired = ref [] in
  let tag name () = fired := name :: !fired in
  ignore (Wheel.set w ~now:0.0 ~after:5.0 (tag "b5"));
  ignore (Wheel.set w ~now:0.0 ~after:2.0 (tag "a2"));
  ignore (Wheel.set w ~now:0.0 ~after:5.0 (tag "c5"));
  ignore (Wheel.set w ~now:0.0 ~after:900.0 (tag "d900"));
  Alcotest.(check int) "pending" 4 (Wheel.pending w);
  Wheel.advance w ~now:10.0;
  Alcotest.(check (list string))
    "deadline order, insertion-stable within a deadline" [ "a2"; "b5"; "c5" ]
    (List.rev !fired);
  Wheel.advance w ~now:1000.0;
  Alcotest.(check (list string)) "far timer fires" [ "a2"; "b5"; "c5"; "d900" ]
    (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Wheel.pending w)

let test_wheel_cancel () =
  let w = Wheel.create ~now:0.0 () in
  let fired = ref 0 in
  let h = Wheel.set w ~now:0.0 ~after:3.0 (fun () -> incr fired) in
  ignore (Wheel.set w ~now:0.0 ~after:3.0 (fun () -> incr fired));
  Wheel.cancel w h;
  Wheel.cancel w h;
  Alcotest.(check int) "cancel is lazy but counted once" 1 (Wheel.pending w);
  Wheel.advance w ~now:10.0;
  Alcotest.(check int) "only the live timer fired" 1 !fired

let test_wheel_clamp () =
  let w = Wheel.create ~now:100.0 () in
  let fired = ref false in
  ignore (Wheel.set w ~now:100.0 ~after:0.0 (fun () -> fired := true));
  Wheel.advance w ~now:100.0;
  Alcotest.(check bool) "zero-delay timer never fires at set time" false !fired;
  Wheel.advance w ~now:102.0;
  Alcotest.(check bool) "fires on the next tick" true !fired;
  (* a timer set from inside a callback lands on a later tick, not the
     one being swept — no infinite same-tick loop *)
  let again = ref 0 in
  let rec resched () =
    if !again < 3 then begin
      incr again;
      ignore (Wheel.set w ~now:110.0 ~after:0.0 resched)
    end
  in
  ignore (Wheel.set w ~now:105.0 ~after:1.0 resched);
  Wheel.advance w ~now:120.0;
  Alcotest.(check int) "reschedule chain progressed across ticks" 3 !again

(* ---------------- parser ---------------- *)

let render_item = function
  | Parser.Req r -> Format.asprintf "%a" Protocol.pp_request r
  | Parser.Bad msg -> "BAD:" ^ msg
  | Parser.Junk -> "JUNK"

let drain p =
  let rec go acc = match Parser.next p with None -> List.rev acc | Some i -> go (i :: acc) in
  go []

let items_of_feeds feeds =
  let p = Parser.create () in
  let all = List.concat_map (fun s -> Parser.feed_string p s; drain p) feeds in
  List.map render_item all

let canonical_stream =
  "version\r\nset alpha 7 0 5\r\nhello\r\ngets alpha\r\nget alpha beta\r\n"
  ^ "cas alpha 0 0 2 9\r\nhi\r\ndelete beta noreply\r\nread alpha majority\r\n"
  ^ "txn\r\nset beta 0 0 4\r\nab\rc\r\ncommit\r\nabort\r\nstats\r\n"
  ^ "stats detail\r\nmetrics\r\nGET /metrics HTTP/1.1\r\nquit\r\n"

let canonical_items =
  [
    "version";
    "set alpha flags=7 exptime=0 bytes=5 \"hello\"";
    "gets alpha";
    "get alpha beta";
    "cas alpha flags=0 exptime=0 bytes=2 \"hi\" cas=9";
    "delete beta noreply";
    "read alpha majority";
    "txn";
    (* binary-safe payload: a bare CR inside the 4-byte data block *)
    "set beta flags=0 exptime=0 bytes=4 \"ab\\rc\"";
    "commit";
    "abort";
    "stats";
    "stats detail";
    "metrics";
    "GET /metrics";
    "quit";
  ]

let test_parser_pinned () =
  Alcotest.(check (list string)) "whole-buffer feed" canonical_items
    (items_of_feeds [ canonical_stream ]);
  let bytes_feed =
    List.init (String.length canonical_stream) (fun i -> String.make 1 canonical_stream.[i])
  in
  Alcotest.(check (list string)) "byte-by-byte feed" canonical_items
    (items_of_feeds bytes_feed)

let test_parser_random_chunks () =
  (* seeded RNG: every run cuts the same streams at the same offsets *)
  let rng = Rng.create 2026 in
  for _round = 1 to 50 do
    let rec cut acc off =
      if off >= String.length canonical_stream then List.rev acc
      else begin
        let n =
          Stdlib.min (1 + Rng.int rng 9) (String.length canonical_stream - off)
        in
        cut (String.sub canonical_stream off n :: acc) (off + n)
      end
    in
    Alcotest.(check (list string)) "random chunk boundaries" canonical_items
      (items_of_feeds (cut [] 0))
  done

let test_parser_malformed () =
  let check_items name input expected =
    Alcotest.(check (list string)) name expected (items_of_feeds [ input ])
  in
  let big_key = String.make 251 'k' in
  check_items "oversized key"
    (Printf.sprintf "get %s\r\nversion\r\n" big_key)
    [ "BAD:bad key"; "version" ];
  check_items "key with control chars" "get a\tb\r\nversion\r\n" [ "BAD:bad key"; "version" ];
  check_items "bad cas token + stream stays aligned"
    "cas k 0 0 3 notanint\r\nxyz\r\nversion\r\n"
    (* the declared 3-byte payload is skipped, not replayed as a command *)
    [ "BAD:bad cas token"; "version" ];
  check_items "negative flags" "set k -1 0 3\r\nxyz\r\nversion\r\n"
    [ "BAD:bad command line format"; "version" ];
  check_items "unparseable byte count" "set k 0 0 wat\r\nget k\r\n"
    [ "BAD:bad command line format"; "get k" ];
  check_items "bad data terminator resyncs at next line" "set k 0 0 3\r\nxyzJUNK\r\nget k\r\n"
    [ "BAD:bad data chunk"; "get k" ];
  check_items "unknown command" "frobnicate now\r\nversion\r\n" [ "JUNK"; "version" ];
  check_items "empty line" "\r\nversion\r\n" [ "JUNK"; "version" ];
  check_items "missing keys" "get\r\nversion\r\n" [ "BAD:no keys"; "version" ]

let test_parser_limits () =
  (* oversized value: rejected up front, payload skipped byte-for-byte *)
  let p = Parser.create ~max_data:8 () in
  Parser.feed_string p "set k 0 0 32\r\n";
  Parser.feed_string p (String.make 16 'x');
  Parser.feed_string p (String.make 16 'y');
  Parser.feed_string p "\r\nversion\r\n";
  Alcotest.(check (list string)) "oversized value skipped"
    [ "BAD:object too large"; "version" ]
    (List.map render_item (drain p));
  (* overlong command line: rejected mid-line, tail discarded *)
  let p = Parser.create ~max_line:64 () in
  Parser.feed_string p ("get " ^ String.make 100 'a');
  Parser.feed_string p ("aaa\r\nversion\r\n");
  Alcotest.(check (list string)) "overlong line" [ "BAD:line too long"; "version" ]
    (List.map render_item (drain p));
  (* truncated payload: no item until the rest arrives, no crash *)
  let p = Parser.create () in
  Parser.feed_string p "set k 0 0 10\r\nhalf";
  Alcotest.(check int) "nothing emitted yet" 0 (List.length (drain p));
  Parser.feed_string p "other\rX";
  Alcotest.(check int) "still waiting for terminator" 0 (List.length (drain p));
  Parser.feed_string p "\n";
  (* 10 bytes arrived but the terminator bytes were "\rX" -> error *)
  Alcotest.(check (list string)) "mis-terminated once complete" [ "BAD:bad data chunk" ]
    (List.map render_item (drain p))

(* ---------------- handler over a synchronous fake backend ---------------- *)

let fake_backend () =
  let store = Hashtbl.create 16 in
  let version = ref 0 in
  let put key flags data =
    incr version;
    Hashtbl.replace store key (flags, data, !version)
  in
  let get key _level k =
    k
      (match Hashtbl.find_opt store key with
      | Some (flags, data, v) ->
        Some { Protocol.h_key = key; h_flags = flags; h_data = data; h_cas = v }
      | None -> None)
  in
  {
    Backend.b_get = get;
    b_set = (fun ~key ~flags ~data k -> put key flags data; k Backend.Stored);
    b_cas =
      (fun ~key ~flags ~data ~cas k ->
        match Hashtbl.find_opt store key with
        | None -> k Backend.Not_found
        | Some (_, _, v) when v <> cas -> k Backend.Exists
        | Some _ -> put key flags data; k Backend.Stored);
    b_delete =
      (fun key k ->
        if Hashtbl.mem store key then begin
          Hashtbl.remove store key;
          k Backend.Stored
        end
        else k Backend.Not_found);
    b_commit =
      (fun ops k ->
        List.iter
          (function
            | Backend.T_set { key; flags; data } -> put key flags data
            | Backend.T_delete key -> Hashtbl.remove store key)
          ops;
        k (Ok ()));
    b_stats = (fun () -> [ ("ping", "pong") ]);
  }

let test_handler_conversation () =
  let out = Buffer.create 256 in
  let closed = ref false in
  let h =
    Handler.create ~backend:(fake_backend ())
      ~write:(Buffer.add_string out)
      ~close:(fun () -> closed := true)
      ()
  in
  let feed s = Handler.on_data h (Bytes.of_string s) 0 (String.length s) in
  feed "version\r\n";
  feed "set a 7 0 3\r\nfoo\r\n";
  feed "gets a\r\n";
  feed "txn\r\nset b 0 0 1\r\nx\r\ndelete a\r\ncas a 0 0 3 1\r\nyyy\r\ncommit\r\n";
  feed "get a\r\nget b\r\n";
  feed "txn\r\nabort\r\ncommit\r\n";
  feed "set c 1 0 1 noreply\r\nz\r\nget c\r\n";
  feed "stats\r\n";
  Alcotest.(check string) "pinned conversation"
    ("VERSION mdcc-wire/1\r\n" ^ "STORED\r\n" ^ "VALUE a 7 3 1\r\nfoo\r\nEND\r\n"
   ^ "STARTED\r\nQUEUED\r\nQUEUED\r\nCLIENT_ERROR cas not allowed inside txn\r\nCOMMITTED\r\n"
   ^ "END\r\n" ^ "VALUE b 0 1\r\nx\r\nEND\r\n"
   ^ "STARTED\r\nABORTED by client\r\nCLIENT_ERROR no open txn\r\n"
   ^ "VALUE c 1 1\r\nz\r\nEND\r\n" ^ "STAT ping pong\r\nEND\r\n")
    (Buffer.contents out);
  Alcotest.(check bool) "idle between requests" true (Handler.idle h);
  Buffer.clear out;
  feed "quit\r\n";
  Alcotest.(check bool) "quit closes" true !closed

let contains = Helpers.contains

(* Live exposition over the handler: the same registry feeds [metrics]
   (Prometheus text), [stats detail] (the verbatim-name firehose), and
   HTTP GET /metrics — and the per-verb counters it serves move with the
   conversation that precedes the scrape. *)
let test_handler_metrics () =
  let out = Buffer.create 1024 in
  let obs = Mdcc_obs.Obs.create () in
  let closed = ref false in
  let h =
    Handler.create ~backend:(fake_backend ())
      ~write:(Buffer.add_string out)
      ~close:(fun () -> closed := true)
      ~obs ()
  in
  let feed s = Handler.on_data h (Bytes.of_string s) 0 (String.length s) in
  feed "set a 0 0 3\r\nfoo\r\nget a\r\nget nope\r\n";
  Buffer.clear out;
  feed "metrics\r\n";
  let body = Buffer.contents out in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle) true
        (contains ~needle body))
    [
      "# TYPE mdcc_wire_cmd_set_total counter";
      "mdcc_wire_cmd_set_total 1\n";
      "mdcc_wire_cmd_get_total 2\n";
      "mdcc_wire_get_hits_total 1\n";
      "mdcc_wire_get_misses_total 1\n";
      "mdcc_wire_bytes_read_total ";
    ];
  Alcotest.(check bool) "ends with END" true
    (String.length body >= 5 && String.equal (String.sub body (String.length body - 5) 5) "END\r\n");
  Buffer.clear out;
  feed "stats detail\r\n";
  let detail = Buffer.contents out in
  Alcotest.(check bool) "stats detail serves verbatim registry names" true
    (contains ~needle:"STAT wire.cmd.get 2\r\n" detail);
  (* An HTTP scrape: headers after the request line must not echo as
     ERROR replies — the handler answers and closes first. *)
  Buffer.clear out;
  feed "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
  let http = Buffer.contents out in
  Alcotest.(check bool) "HTTP status line" true
    (contains ~needle:"HTTP/1.0 200 OK\r\n" http);
  Alcotest.(check bool) "prometheus content type" true
    (contains ~needle:"Content-Type: text/plain; version=0.0.4\r\n" http);
  Alcotest.(check bool) "body carries the counters" true
    (contains ~needle:"mdcc_wire_cmd_set_total 1\n" http);
  Alcotest.(check bool) "no ERROR echoed for header lines" false
    (contains ~needle:"ERROR" http);
  Alcotest.(check bool) "connection closed after the scrape" true !closed

let test_parser_resync_counter () =
  let p = Parser.create () in
  Parser.feed_string p "cas k 0 0 3 notanint\r\nxyz\r\nset k 0 0 3\r\nxyzJUNK\r\nversion\r\n";
  let items = List.map render_item (drain p) in
  Alcotest.(check (list string)) "stream re-aligns after both errors"
    [ "BAD:bad cas token"; "BAD:bad data chunk"; "version" ]
    items;
  Alcotest.(check int) "both resyncs counted" 2 (Parser.resyncs p)

(* ---------------- the full wire stack over the simulated runtime -------- *)

let kv_schema = Schema.create [ { Schema.name = "kv"; bounds = []; master_dc = 0 } ]

let test_wire_over_sim () =
  let engine = Engine.create ~seed:7 in
  let config = Config.make ~replication:5 () in
  let cluster = Cluster.create ~engine ~spec:Cluster.Spec.default ~config ~schema:kv_schema () in
  let session = Session.create (Cluster.coordinator cluster ~dc:0 ~rank:0) in
  let counter = ref 0 in
  let next_txid () = incr counter; Printf.sprintf "w%d" !counter in
  let backend = Backend.of_session ~table:"kv" ~next_txid session in
  let out = Buffer.create 256 in
  let h =
    Handler.create ~backend ~write:(Buffer.add_string out) ~close:(fun () -> ()) ()
  in
  let feed s = Handler.on_data h (Bytes.of_string s) 0 (String.length s) in
  (* one pipelined burst; every reply is produced by real MDCC commits
     running in the DES — byte-identical on every run *)
  feed
    ("set a 0 0 5\r\nhello\r\ngets a\r\n" ^ "cas a 0 0 5 1\r\nworld\r\ngets a\r\n"
   ^ "cas a 0 0 2 1\r\nxx\r\n" ^ "txn\r\nset x 0 0 1\r\n1\r\nset y 0 0 1\r\n2\r\ncommit\r\n"
   ^ "gets x y\r\ndelete a\r\nget a\r\nread y majority\r\n");
  Engine.run ~until:120_000.0 engine;
  Alcotest.(check string) "wire conversation over the DES"
    ("STORED\r\n" ^ "VALUE a 0 5 1\r\nhello\r\nEND\r\n" ^ "STORED\r\n"
   ^ "VALUE a 0 5 2\r\nworld\r\nEND\r\n" ^ "EXISTS\r\n"
   ^ "STARTED\r\nQUEUED\r\nQUEUED\r\nCOMMITTED\r\n"
   ^ "VALUE x 0 1 1\r\n1\r\nVALUE y 0 1 1\r\n2\r\nEND\r\n" ^ "DELETED\r\n" ^ "END\r\n"
   ^ "VALUE y 0 1 1\r\n2\r\nEND\r\n")
    (Buffer.contents out);
  Alcotest.(check bool) "handler drained" true (Handler.idle h)

(* ---------------- socket loop byte metering ---------------- *)

let test_loop_meter_size_of () =
  let lp = Loop.create ~seed:3 () in
  let rt = Loop.runtime lp in
  let delivered = ref 0 in
  Runtime.register rt 1 (fun ~src:_ _payload -> incr delivered);
  let sent_bytes = ref 0 and recv_bytes = ref 0 in
  Loop.set_meter lp
    {
      Loop.w_size = Messages.size_of;
      w_on_send = (fun ~src:_ ~dst:_ ~bytes -> sent_bytes := !sent_bytes + bytes);
      w_on_deliver = (fun ~src:_ ~dst:_ ~bytes -> recv_bytes := !recv_bytes + bytes);
    };
  let payload =
    Messages.Phase1a
      { key = Key.make ~table:"kv" ~id:"x"; ballot = Mdcc_paxos.Ballot.initial_fast }
  in
  Runtime.send rt ~src:0 ~dst:1 payload;
  Loop.poll lp ~max_wait_ms:0.0;
  Alcotest.(check int) "delivered" 1 !delivered;
  let expect = Messages.size_of payload in
  Alcotest.(check bool) "size_of is positive" true (expect > 0);
  (* framing charges Messages.size_of — the single source of truth shared
     with the simulated network's meter *)
  Alcotest.(check int) "sent bytes = size_of" expect !sent_bytes;
  Alcotest.(check int) "delivered bytes = size_of" expect !recv_bytes

(* ---------------- server binary: SIGTERM graceful drain ---------------- *)

let server_exe =
  if Sys.file_exists "../bin/server_cli.exe" then "../bin/server_cli.exe"
  else "_build/default/bin/server_cli.exe"

let deadline_read fd buf ~deadline =
  let timeout = deadline -. Unix.gettimeofday () in
  if timeout <= 0.0 then Alcotest.fail "timed out waiting for server bytes";
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> Alcotest.fail "timed out waiting for server bytes"
  | _ -> Unix.read fd buf 0 (Bytes.length buf)

let count_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i acc =
    if i + n > m then acc
    else if String.equal (String.sub s i n) sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_server_sigterm () =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process server_exe
      [| server_exe; "--nodes"; "3"; "--port"; "0" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  (* port announcement: "LISTENING <port>\n" *)
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 64 in
  let rec read_port () =
    let n = deadline_read out_r buf ~deadline in
    if n = 0 then Alcotest.fail "server exited before announcing its port";
    Buffer.add_subbytes acc buf 0 n;
    match String.index_opt (Buffer.contents acc) '\n' with
    | None -> read_port ()
    | Some _ -> Scanf.sscanf (Buffer.contents acc) "LISTENING %d" (fun p -> p)
  in
  let port = read_port () in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
  (* a pipelined batch, then SIGTERM once the server is mid-batch *)
  let batch = Buffer.create 2048 in
  for i = 0 to 49 do
    Buffer.add_string batch (Printf.sprintf "set sk%02d 0 0 4\r\nabcd\r\n" i)
  done;
  let payload = Buffer.contents batch in
  let written = Unix.write_substring fd payload 0 (String.length payload) in
  Alcotest.(check int) "batch fits the socket buffer" (String.length payload) written;
  let replies = Buffer.create 1024 in
  let n = deadline_read fd buf ~deadline in
  Buffer.add_subbytes replies buf 0 n;
  Unix.kill pid Sys.sigterm;
  (* the drain must answer every queued set before the server exits *)
  let rec read_until_eof () =
    let n = deadline_read fd buf ~deadline in
    if n > 0 then begin
      Buffer.add_subbytes replies buf 0 n;
      read_until_eof ()
    end
  in
  read_until_eof ();
  Unix.close fd;
  Unix.close out_r;
  Alcotest.(check int) "all pipelined sets answered across the SIGTERM" 50
    (count_substring ~sub:"STORED\r\n" (Buffer.contents replies));
  let rec wait_exit () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        Alcotest.fail "server did not exit after SIGTERM"
      end
      else begin
        ignore (Unix.select [] [] [] 0.05);
        wait_exit ()
      end
    | _, status -> status
  in
  match wait_exit () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "server exited %d, wanted 0" n
  | Unix.WSIGNALED s -> Alcotest.failf "server killed by signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "server stopped"

(* ---------------- server binary: live metrics over real TCP ------------- *)

let read_until ~pred ~deadline fd =
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 1024 in
  let rec go () =
    if pred (Buffer.contents acc) then Buffer.contents acc
    else begin
      let n = deadline_read fd buf ~deadline in
      if n = 0 then Buffer.contents acc
      else begin
        Buffer.add_subbytes acc buf 0 n;
        go ()
      end
    end
  in
  go ()

let send_all fd s =
  let n = Unix.write_substring fd s 0 (String.length s) in
  Alcotest.(check int) "short write" (String.length s) n

let test_server_metrics () =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let out_r, out_w = Unix.pipe () in
  let pid =
    Unix.create_process server_exe
      [| server_exe; "--nodes"; "3"; "--port"; "0" |]
      Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  let buf = Bytes.create 4096 in
  let acc = Buffer.create 64 in
  let rec read_port () =
    let n = deadline_read out_r buf ~deadline in
    if n = 0 then Alcotest.fail "server exited before announcing its port";
    Buffer.add_subbytes acc buf 0 n;
    match String.index_opt (Buffer.contents acc) '\n' with
    | None -> read_port ()
    | Some _ -> Scanf.sscanf (Buffer.contents acc) "LISTENING %d" (fun p -> p)
  in
  let port = read_port () in
  let connect () =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.connect fd (ADDR_INET (Unix.inet_addr_of_string "127.0.0.1", port));
    fd
  in
  let counter_value body name =
    (* last space-separated token of the matching exposition line *)
    String.split_on_char '\n' body
    |> List.find_map (fun line ->
           match String.split_on_char ' ' line with
           | [ n; v ] when String.equal n name -> int_of_string_opt v
           | _ -> None)
  in
  let fd = connect () in
  let ends_with_end s =
    String.length s >= 5 && String.equal (String.sub s (String.length s - 5) 5) "END\r\n"
  in
  (* one committed set, then a scrape over the ASCII command *)
  send_all fd "set mk 0 0 5\r\nhello\r\n";
  let stored = read_until ~pred:(contains ~needle:"STORED\r\n") ~deadline fd in
  Alcotest.(check bool) "set answered" true (contains ~needle:"STORED\r\n" stored);
  send_all fd "metrics\r\n";
  let m1 = read_until ~pred:ends_with_end ~deadline fd in
  Alcotest.(check bool) "exposition has typed counter families" true
    (contains ~needle:"# TYPE mdcc_wire_cmd_set_total counter" m1);
  let sets1 =
    match counter_value m1 "mdcc_wire_cmd_set_total" with
    | Some v -> v
    | None -> Alcotest.fail "mdcc_wire_cmd_set_total missing from exposition"
  in
  Alcotest.(check int) "one set counted" 1 sets1;
  (* more load: the same counter must move on the next scrape *)
  send_all fd "set mk2 0 0 2\r\nhi\r\n";
  ignore (read_until ~pred:(contains ~needle:"STORED\r\n") ~deadline fd);
  send_all fd "metrics\r\n";
  let m2 = read_until ~pred:ends_with_end ~deadline fd in
  (match counter_value m2 "mdcc_wire_cmd_set_total" with
  | Some v -> Alcotest.(check int) "counter moved under load" 2 v
  | None -> Alcotest.fail "mdcc_wire_cmd_set_total missing from second scrape");
  send_all fd "quit\r\n";
  Unix.close fd;
  (* same registry over HTTP, for curl / a scrape job *)
  let http_fd = connect () in
  send_all http_fd "GET /metrics HTTP/1.1\r\nHost: localhost\r\nAccept: */*\r\n\r\n";
  let http = read_until ~pred:(fun _ -> false) ~deadline http_fd in
  Unix.close http_fd;
  Alcotest.(check bool) "HTTP 200" true (contains ~needle:"HTTP/1.0 200 OK\r\n" http);
  Alcotest.(check bool) "scrape content type" true
    (contains ~needle:"Content-Type: text/plain; version=0.0.4\r\n" http);
  Alcotest.(check bool) "HTTP body serves the same registry" true
    (contains ~needle:"mdcc_wire_cmd_set_total 2" http);
  Unix.kill pid Sys.sigterm;
  Unix.close out_r;
  let rec wait_exit () =
    match Unix.waitpid [ WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        Unix.kill pid Sys.sigkill;
        Alcotest.fail "server did not exit after SIGTERM"
      end
      else begin
        ignore (Unix.select [] [] [] 0.05);
        wait_exit ()
      end
    | _, status -> status
  in
  match wait_exit () with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED n -> Alcotest.failf "server exited %d, wanted 0" n
  | Unix.WSIGNALED s -> Alcotest.failf "server killed by signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "server stopped"

let suite =
  [
    Alcotest.test_case "timer wheel: firing order" `Quick test_wheel_order;
    Alcotest.test_case "timer wheel: cancellation" `Quick test_wheel_cancel;
    Alcotest.test_case "timer wheel: next-tick clamp" `Quick test_wheel_clamp;
    Alcotest.test_case "parser: pinned stream, any chunking" `Quick test_parser_pinned;
    Alcotest.test_case "parser: seeded random chunk boundaries" `Quick
      test_parser_random_chunks;
    Alcotest.test_case "parser: malformed input" `Quick test_parser_malformed;
    Alcotest.test_case "parser: limits and truncation" `Quick test_parser_limits;
    Alcotest.test_case "handler: pinned conversation" `Quick test_handler_conversation;
    Alcotest.test_case "handler: live metrics exposition" `Quick test_handler_metrics;
    Alcotest.test_case "parser: resync counter" `Quick test_parser_resync_counter;
    Alcotest.test_case "wire stack over the simulated runtime" `Quick test_wire_over_sim;
    Alcotest.test_case "socket loop meters Messages.size_of" `Quick test_loop_meter_size_of;
    Alcotest.test_case "server_cli: SIGTERM graceful drain" `Quick test_server_sigterm;
    Alcotest.test_case "server_cli: live metrics over TCP" `Quick test_server_metrics;
  ]
