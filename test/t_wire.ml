(* Wire front-end tests: the socket loop's engine-backed timers, the
   incremental parser under arbitrary chunk boundaries and malformed input,
   the connection handler over a synchronous fake backend, the full wire
   stack over the *simulated* runtime (pinning that the protocol layer is
   runtime-agnostic), the socket loop's Messages.size_of byte metering and
   listen failures, the in-process server under pipelined load with a
   read-back, and the server binary's SIGTERM graceful drain. *)

module Loop = Mdcc_runtime_unix.Loop
module Runtime = Mdcc_core.Runtime
module Messages = Mdcc_core.Messages
module Config = Mdcc_core.Config
module Cluster = Mdcc_core.Cluster
module Session = Mdcc_core.Session
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Rng = Mdcc_util.Rng
module Protocol = Mdcc_wire.Protocol
module Parser = Mdcc_wire.Parser
module Backend = Mdcc_wire.Backend
module Handler = Mdcc_wire.Handler
open Mdcc_storage

(* ---------------- loop timers ---------------- *)

(* Poll until [pred] holds; the deadlines below are tens of milliseconds,
   so ten seconds of wall time means the loop is stuck. *)
let poll_until lp pred =
  let give_up = Unix.gettimeofday () +. 10.0 in
  while not (pred ()) do
    if Unix.gettimeofday () > give_up then Alcotest.fail "loop never reached the expected state";
    Loop.poll lp ~max_wait_ms:20.0
  done

let test_loop_timer_order () =
  let lp = Loop.create () in
  let rt = Loop.runtime lp in
  let fired = ref [] in
  let tag name () = fired := name :: !fired in
  ignore (Runtime.set_timer rt ~after:30.0 (tag "b30"));
  ignore (Runtime.set_timer rt ~after:10.0 (tag "a10"));
  ignore (Runtime.set_timer rt ~after:30.0 (tag "c30"));
  ignore (Runtime.set_timer rt ~after:60.0 (tag "d60"));
  (* Spawns are zero-delay events: both fall due at the same instant, so
     only insertion order separates them. *)
  Runtime.spawn rt (tag "s1");
  Runtime.spawn rt (tag "s2");
  Alcotest.(check int) "pending" 6 (Loop.timers_pending lp);
  Alcotest.(check (list string)) "nothing runs before a poll" [] !fired;
  poll_until lp (fun () -> List.length !fired = 6);
  Alcotest.(check (list string))
    "deadline order, insertion order within a deadline"
    [ "s1"; "s2"; "a10"; "b30"; "c30"; "d60" ]
    (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Loop.timers_pending lp)

let test_loop_timer_cancel () =
  let lp = Loop.create () in
  let rt = Loop.runtime lp in
  let fired = ref 0 in
  let h = Runtime.set_timer rt ~after:3.0 (fun () -> incr fired) in
  let live = Runtime.set_timer rt ~after:3.0 (fun () -> incr fired) in
  Runtime.cancel_timer rt h;
  Runtime.cancel_timer rt h;
  Alcotest.(check int) "a double cancel counts once" 1 (Loop.timers_pending lp);
  poll_until lp (fun () -> !fired > 0);
  Alcotest.(check int) "only the live timer fired" 1 !fired;
  Runtime.cancel_timer rt live;
  Alcotest.(check int) "cancelling a fired timer is a no-op" 0 (Loop.timers_pending lp);
  ignore (Runtime.set_timer rt ~after:1000.0 ignore);
  Alcotest.(check int) "the count stays exact afterwards" 1 (Loop.timers_pending lp)

let test_loop_timer_from_callback () =
  let lp = Loop.create () in
  let rt = Loop.runtime lp in
  let inner = ref false and ran_inside = ref true in
  ignore
    (Runtime.set_timer rt ~after:1.0 (fun () ->
         ignore (Runtime.set_timer rt ~after:0.0 (fun () -> inner := true));
         ran_inside := !inner));
  poll_until lp (fun () -> !inner);
  Alcotest.(check bool) "a timer set in a callback never runs inside it" false !ran_inside;
  (* A zero-delay timer that reschedules itself forever: each poll still
     returns, and each one moves the chain on. *)
  let steps = ref 0 and stop = ref false in
  let rec resched () =
    incr steps;
    if not !stop then ignore (Runtime.set_timer rt ~after:0.0 resched)
  in
  ignore (Runtime.set_timer rt ~after:0.0 resched);
  for _ = 1 to 5 do
    Loop.poll lp ~max_wait_ms:0.0
  done;
  Alcotest.(check bool) "the chain moved on every poll" true (!steps >= 5);
  stop := true;
  poll_until lp (fun () -> Loop.timers_pending lp = 0)

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
  check_items "missing keys" "get\r\nversion\r\n" [ "BAD:no keys"; "version" ];
  (* Numeric fields are decimal digits only, not OCaml integer literals:
     a bad byte count skips nothing, so the payload line reads as junk. *)
  check_items "hex byte count" "set k 0 0 0x4\r\nabcd\r\nversion\r\n"
    [ "BAD:bad command line format"; "JUNK"; "version" ];
  check_items "underscored flags" "set k 1_0 0 4\r\nabcd\r\nversion\r\n"
    [ "BAD:bad command line format"; "version" ];
  check_items "binary cas token" "cas k 0 0 4 0b11\r\nabcd\r\nversion\r\n"
    [ "BAD:bad cas token"; "version" ];
  check_items "minus zero flags" "set k -0 0 4\r\nabcd\r\nversion\r\n"
    [ "BAD:bad command line format"; "version" ];
  check_items "plus-signed exptime" "set k 0 +5 4\r\nabcd\r\nversion\r\n"
    [ "BAD:bad command line format"; "version" ];
  check_items "minus zero byte count" "set k 0 0 -0\r\nversion\r\n"
    [ "BAD:bad command line format"; "version" ];
  check_items "byte count past max_int" "set k 0 0 9999999999999999999999\r\nversion\r\n"
    [ "BAD:bad command line format"; "version" ];
  (* the block plus its \r\n would pass max_int: no count, nothing skipped *)
  check_items "byte count of max_int"
    (Printf.sprintf "set k 0 0 %d\r\nversion\r\n" max_int)
    [ "BAD:bad command line format"; "version" ]

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

(* ---------------- parser against a split-based model ---------------- *)

(* The reference model: the tokeniser the in-place parser replaced —
   each line copied out and split on spaces — with numeric fields
   restricted to decimal digits and the byte count to [max_int - 2], over
   a string buffer.  It mirrors the
   parser's driver, so an overlong line is caught at the same chunk
   boundary in both. *)
module Model = struct
  type header = {
    key : string;
    flags : int;
    exptime : int;
    bytes : int;
    noreply : bool;
    cas : int option;
  }

  type mode = Line | Data of header | Skip_data of int | Skip_line

  type t = {
    mutable pending : string;
    mutable mode : mode;
    mutable resyncs : int;
    mutable out : Parser.item list;  (* newest first *)
    max_key : int;
    max_data : int;
    max_line : int;
  }

  let create ~max_key ~max_data ~max_line =
    { pending = ""; mode = Line; resyncs = 0; out = []; max_key; max_data; max_line }

  let emit t item = t.out <- item :: t.out

  let resync t mode =
    t.resyncs <- t.resyncs + 1;
    t.mode <- mode

  let drop t n = t.pending <- String.sub t.pending n (String.length t.pending - n)

  let key_ok t k =
    let n = String.length k in
    n > 0 && n <= t.max_key && String.for_all (fun ch -> ch > ' ' && ch <> '\x7f') k

  let nonneg_int s =
    if s <> "" && String.for_all (function '0' .. '9' -> true | _ -> false) s then
      int_of_string_opt s
    else None

  let parse_store t ~cas tokens =
    let fail ?bytes msg =
      emit t (Parser.Bad msg);
      match bytes with Some b when b > 0 -> resync t (Skip_data (b + 2)) | Some _ | None -> ()
    in
    match tokens with
    | key :: flags :: exptime :: bytes :: rest -> (
      let bytes_opt =
        match nonneg_int bytes with Some b when b <= max_int - 2 -> Some b | Some _ | None -> None
      in
      let cas_tok, rest =
        if cas then match rest with tok :: more -> (Some tok, more) | [] -> (None, [])
        else (None, rest)
      in
      let noreply, junk =
        match rest with [] -> (false, false) | [ "noreply" ] -> (true, false) | _ -> (false, true)
      in
      if junk then fail ?bytes:bytes_opt "bad command line format"
      else if not (key_ok t key) then fail ?bytes:bytes_opt "bad key"
      else
        match (nonneg_int flags, nonneg_int exptime, bytes_opt) with
        | _, _, None -> fail "bad command line format"
        | _, _, Some b when b > t.max_data -> fail ~bytes:b "object too large"
        | Some f, Some e, Some b -> (
          let data cas = t.mode <- Data { key; flags = f; exptime = e; bytes = b; noreply; cas } in
          match (cas, cas_tok) with
          | false, _ -> data None
          | true, Some tok -> (
            match nonneg_int tok with Some c -> data (Some c) | None -> fail ~bytes:b "bad cas token")
          | true, None -> fail ~bytes:b "bad command line format")
        | _, _, Some b -> fail ~bytes:b "bad command line format")
    | _ -> fail "bad command line format"

  let parse_get t keys ~with_cas =
    if keys = [] then emit t (Parser.Bad "no keys")
    else if List.for_all (key_ok t) keys then emit t (Parser.Req (Get { keys; with_cas }))
    else emit t (Parser.Bad "bad key")

  let parse_line t line =
    let req r = emit t (Parser.Req r) in
    match List.filter (fun s -> s <> "") (String.split_on_char ' ' line) with
    | [] -> emit t Parser.Junk
    | "get" :: keys -> parse_get t keys ~with_cas:false
    | "gets" :: keys -> parse_get t keys ~with_cas:true
    | "set" :: rest -> parse_store t ~cas:false rest
    | "cas" :: rest -> parse_store t ~cas:true rest
    | [ "delete"; key ] when key_ok t key -> req (Delete { key; noreply = false })
    | [ "delete"; key; "noreply" ] when key_ok t key -> req (Delete { key; noreply = true })
    | "delete" :: _ -> emit t (Parser.Bad "bad key")
    | [ "read"; key ] when key_ok t key -> req (Read { key; level = `Session })
    | [ "read"; key; lvl ] when key_ok t key -> (
      match Protocol.level_of_string lvl with
      | Some level -> req (Read { key; level })
      | None -> emit t (Parser.Bad "bad read level"))
    | "read" :: _ -> emit t (Parser.Bad "bad key")
    | [ "txn" ] -> req Txn
    | [ "commit" ] -> req Commit
    | [ "abort" ] -> req Abort
    | [ "stats" ] -> req Stats
    | [ "stats"; "detail" ] -> req Stats_detail
    | [ "metrics" ] -> req Metrics
    | [ "GET"; path; version ]
      when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
      req (Http_get path)
    | [ "version" ] -> req Version
    | [ "quit" ] -> req Quit
    | _ -> emit t Parser.Junk

  let rec advance t =
    let len = String.length t.pending in
    match t.mode with
    | Line -> (
      match String.index_opt t.pending '\n' with
      | Some nl ->
        let n = if nl > 0 && t.pending.[nl - 1] = '\r' then nl - 1 else nl in
        let line = String.sub t.pending 0 n in
        drop t (nl + 1);
        parse_line t line;
        advance t
      | None ->
        if len > t.max_line then begin
          emit t (Parser.Bad "line too long");
          t.pending <- "";
          resync t Skip_line
        end)
    | Data hd ->
      if len >= hd.bytes + 2 then
        if t.pending.[hd.bytes] = '\r' && t.pending.[hd.bytes + 1] = '\n' then begin
          let store =
            { Protocol.s_key = hd.key; s_flags = hd.flags; s_exptime = hd.exptime;
              s_data = String.sub t.pending 0 hd.bytes; s_noreply = hd.noreply }
          in
          drop t (hd.bytes + 2);
          t.mode <- Line;
          emit t
            (Parser.Req
               (match hd.cas with None -> Set store | Some cas -> Cas { store; cas }));
          advance t
        end
        else begin
          drop t hd.bytes;
          emit t (Parser.Bad "bad data chunk");
          resync t Skip_line;
          advance t
        end
    | Skip_data remaining ->
      let take = Stdlib.min len remaining in
      drop t take;
      if take = remaining then begin
        t.mode <- Line;
        advance t
      end
      else t.mode <- Skip_data (remaining - take)
    | Skip_line -> (
      match String.index_opt t.pending '\n' with
      | Some nl ->
        drop t (nl + 1);
        t.mode <- Line;
        advance t
      | None -> t.pending <- "")

  let feed t chunk =
    if chunk <> "" then begin
      t.pending <- t.pending ^ chunk;
      advance t
    end
end

(* Small limits, so that overlong keys, lines and blocks are cheap to
   generate. *)
let max_key = 8 and max_data = 16 and max_line = 48

let tokens =
  [| "get"; "gets"; "set"; "cas"; "delete"; "read"; "txn"; "commit"; "abort"; "stats";
     "detail"; "metrics"; "version"; "quit"; "GET"; "/metrics"; "HTTP/1.1"; "HTTP/"; "HTTP";
     "noreply"; "local"; "session"; "majority"; "bogus"; "k"; "key1"; "a\tb"; "x\x7f";
     "kkkkkkkkk"; "0"; "1"; "4"; "5"; "16"; "17"; "007"; "0x4"; "0b11"; "0o7"; "0u5"; "1_0";
     "-0"; "-1"; "+5"; "99999999999999999999"; "4611686018427387903"; "4611686018427387904" |]

let gen_line =
  let open QCheck.Gen in
  let* lead = oneofl [ ""; ""; " "; "   " ] in
  let* toks = list_size (int_range 0 6) (pair (oneofa tokens) (oneofl [ " "; " "; "  "; "    " ])) in
  let* trail = oneofl [ ""; ""; " " ] in
  let* term = oneofl [ "\r\n"; "\r\n"; "\n"; "\r\r\n" ] in
  let body = String.concat "" (List.mapi (fun i (tok, sep) -> if i = 0 then tok else sep ^ tok) toks) in
  return (lead ^ body ^ trail ^ term)

(* A [set]/[cas] whose declared count, data length and terminator each
   may be off. *)
let gen_store =
  let open QCheck.Gen in
  let* verb = oneofl [ "set"; "cas" ] in
  let* key = oneofl [ "k"; "key1"; "kkkkkkkkk" ] in
  let* flags = oneofl [ "0"; "7"; "0x4"; "-0" ] in
  let* declared = int_range 0 20 in
  let* len = frequency [ (4, return declared); (1, int_range 0 20) ] in
  let* cas = oneofl [ " 3"; " 0b11"; ""; " 12" ] in
  let* noreply = oneofl [ ""; ""; " noreply"; " noreply extra" ] in
  let* term = oneofl [ "\r\n"; "\r\n"; "\n"; "XY" ] in
  let cas = if verb = "cas" then cas else "" in
  return
    (Printf.sprintf "%s %s %s 0 %d%s%s\r\n%s%s" verb key flags declared cas noreply
       (String.make len 'd') term)

let gen_fragment =
  let open QCheck.Gen in
  frequency
    [
      (6, gen_line);
      (4, gen_store);
      (1, oneofl [ "\r\n"; "\n" ]);
      (1, map (fun n -> "get " ^ String.make (max_line + n) 'a' ^ "\r\n") (int_range (-8) 40));
      (1, map (fun ks -> "get " ^ String.concat " " ks ^ "\r\n") (list_size (int_range 1 5) (oneofl [ "k"; "a"; "key1" ])));
      (1, return "GET /metrics HTTP/1.1\r\n");
    ]

(* A stream and the lengths of the chunks it arrives in. *)
let gen_feed =
  QCheck.Gen.(pair (map (String.concat "") (list_size (int_range 1 30) gen_fragment))
                (list_size (int_range 1 200) (int_range 1 24)))

let chunks stream cuts =
  let rec go off cuts acc =
    if off >= String.length stream then List.rev acc
    else
      let n, cuts = match cuts with n :: rest -> (n, rest) | [] -> (String.length stream - off, []) in
      let n = Stdlib.min n (String.length stream - off) in
      go (off + n) cuts (String.sub stream off n :: acc)
  in
  go 0 cuts []

let prop_parser_matches_model =
  QCheck.Test.make ~name:"parser: same items and resyncs as the split model" ~count:500
    (QCheck.make ~print:(fun (s, cuts) ->
         Printf.sprintf "%S cut %s" s (String.concat "," (List.map string_of_int cuts)))
       gen_feed)
    (fun (stream, cuts) ->
      let p = Parser.create ~max_key ~max_data ~max_line () in
      let m = Model.create ~max_key ~max_data ~max_line in
      let got =
        List.concat_map
          (fun c ->
            Parser.feed_string p c;
            Model.feed m c;
            drain p)
          (chunks stream cuts)
      in
      let want = List.rev m.Model.out in
      if got = want && Parser.resyncs p = m.Model.resyncs then true
      else
        QCheck.Test.fail_reportf "parser [%s] resyncs %d@.model  [%s] resyncs %d"
          (String.concat "; " (List.map render_item got)) (Parser.resyncs p)
          (String.concat "; " (List.map render_item want)) m.Model.resyncs)

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
      ~obs:(Mdcc_obs.Obs.create ()) ()
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

let test_handler_txn_cap () =
  let out = Buffer.create 256 in
  let h =
    Handler.create ~backend:(fake_backend ())
      ~write:(Buffer.add_string out)
      ~close:ignore
      ~obs:(Mdcc_obs.Obs.create ()) ()
  in
  let feed s = Handler.on_data h (Bytes.of_string s) 0 (String.length s) in
  let n = Handler.max_txn_ops in
  feed "txn\r\n";
  for i = 1 to n do
    feed (Printf.sprintf "set k%d 0 0 1\r\nx\r\n" i)
  done;
  feed "set over 0 0 1\r\nx\r\ndelete k1\r\ncommit\r\nget k1 over\r\n";
  let queued = String.concat "" (List.init n (fun _ -> "QUEUED\r\n")) in
  Alcotest.(check string) "the write past the cap voids the txn"
    ("STARTED\r\n" ^ queued ^ "CLIENT_ERROR txn too long\r\n"
   ^ "CLIENT_ERROR txn too long\r\n" ^ "ABORTED txn too long\r\n" ^ "END\r\n")
    (Buffer.contents out);
  Buffer.clear out;
  feed "txn\r\nset a 0 0 1\r\ny\r\ncommit\r\nget a\r\n";
  Alcotest.(check string) "the next txn starts from zero"
    "STARTED\r\nQUEUED\r\nCOMMITTED\r\nVALUE a 0 1\r\ny\r\nEND\r\n"
    (Buffer.contents out)

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
  let obs = Cluster.obs cluster in
  let backend =
    let partition_of id =
      Cluster.Layout.partition (Cluster.layout cluster) (Key.make ~table:"kv" ~id)
    in
    Backend.of_session ~table:"kv" ~partition_of ~obs ~next_txid session
  in
  let out = Buffer.create 256 in
  let h =
    Handler.create ~backend ~write:(Buffer.add_string out) ~close:(fun () -> ()) ~obs ()
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
  let delivered = ref 0 and seen_ctx = ref [] in
  Runtime.register rt 1 (fun ~src:_ _payload ->
      incr delivered;
      seen_ctx := Net.trace_context () :: !seen_ctx);
  let sized = ref 0 and sent_bytes = ref 0 and recv_bytes = ref 0 in
  Loop.set_meter lp
    {
      Loop.w_size =
        (fun p ->
          incr sized;
          Messages.size_of p);
      w_on_send = (fun ~src:_ ~dst:_ ~bytes -> sent_bytes := !sent_bytes + bytes);
      w_on_deliver = (fun ~src:_ ~dst:_ ~bytes -> recv_bytes := !recv_bytes + bytes);
    };
  let payload =
    Messages.Phase1a
      { key = Key.make ~table:"kv" ~id:"x"; ballot = Mdcc_paxos.Ballot.initial_fast }
  in
  Net.with_trace_context (Some "tx-7") (fun () ->
      for _ = 1 to 3 do
        Runtime.send rt ~src:0 ~dst:1 payload
      done);
  Loop.poll lp ~max_wait_ms:0.0;
  Alcotest.(check int) "delivered" 3 !delivered;
  Alcotest.(check int) "size_of runs once per message" 3 !sized;
  Alcotest.(check (list (option string)))
    "the handler runs in the sender's trace context" [ Some "tx-7"; Some "tx-7"; Some "tx-7" ]
    !seen_ctx;
  Alcotest.(check (option string)) "and the context is restored after" None
    (Net.trace_context ());
  let expect = Messages.size_of payload in
  Alcotest.(check bool) "size_of is positive" true (expect > 0);
  (* framing charges Messages.size_of — the single source of truth shared
     with the simulated network's meter *)
  Alcotest.(check int) "sent bytes = size_of" (3 * expect) !sent_bytes;
  Alcotest.(check int) "delivered bytes = size_of" (3 * expect) !recv_bytes

(* ---------------- socket loop: listen failures ---------------- *)

(* A listening socket on an ephemeral port, which the code under test
   then finds in use. *)
let hold_port () =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.bind fd (ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen fd 1;
  match Unix.getsockname fd with
  | ADDR_INET (_, port) -> (fd, port)
  | ADDR_UNIX _ -> Alcotest.fail "not an inet socket"

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_loop_listen_failure () =
  let lp = Loop.create () in
  let held, port = hold_port () in
  let fds_before = if Sys.file_exists "/proc/self/fd" then Some (open_fds ()) else None in
  for _ = 1 to 5 do
    match Loop.listen lp ~port (fun _ -> Alcotest.fail "accepted on a failed listener") with
    | _ -> Alcotest.fail "listen on a port in use succeeded"
    | exception Unix.Unix_error (EADDRINUSE, _, _) -> ()
  done;
  Option.iter
    (fun n -> Alcotest.(check int) "failed listens leave no socket open" n (open_fds ()))
    fds_before;
  Unix.close held

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

(* Run the server with [args], expecting it to exit by itself: its
   stderr up to the exit and its exit status.  A server still running at
   [deadline] is killed and the test fails. *)
let server_stderr_and_exit ~deadline args =
  let err_r, err_w = Unix.pipe () in
  let pid =
    Unix.create_process server_exe (Array.of_list (server_exe :: args)) Unix.stdin
      Unix.stdout err_w
  in
  Unix.close err_w;
  let buf = Bytes.create 4096 and err = Buffer.create 128 in
  let rec read_all () =
    match deadline_read err_r buf ~deadline with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes err buf 0 n;
      read_all ()
    | exception e ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Unix.close err_r;
      raise e
  in
  read_all ();
  Unix.close err_r;
  let _, status = Unix.waitpid [] pid in
  (Buffer.contents err, status)

let check_exit_2 = function
  | Unix.WEXITED 2 -> ()
  | Unix.WEXITED n -> Alcotest.failf "server exited %d, wanted 2" n
  | Unix.WSIGNALED s -> Alcotest.failf "server killed by signal %d" s
  | Unix.WSTOPPED _ -> Alcotest.fail "server stopped"

let test_server_port_in_use () =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let held, port = hold_port () in
  let err, status =
    server_stderr_and_exit ~deadline [ "--nodes"; "3"; "--port"; string_of_int port ]
  in
  Unix.close held;
  Alcotest.(check string) "one line naming the address"
    (Printf.sprintf "server_cli: cannot listen on 127.0.0.1:%d: %s\n" port
       (Unix.error_message EADDRINUSE))
    err;
  check_exit_2 status

(* A port outside [0, 65535] is a bad knob, not a port modulo 65,536:
   one stderr line and exit 2, before anything listens. *)
let test_server_port_out_of_range () =
  List.iter
    (fun port ->
      let err, status =
        server_stderr_and_exit ~deadline:(Unix.gettimeofday () +. 10.0)
          [ "--nodes"; "3"; Printf.sprintf "--port=%d" port ]
      in
      Alcotest.(check string) (Printf.sprintf "port %d: one line" port)
        (Printf.sprintf "server_cli: --port must be in [0, 65535] (got %d)\n" port)
        err;
      check_exit_2 status)
    [ -5; 65536; 70000 ]

(* ---------------- in-process server: pipelined load, read-back ---------- *)

(* One client connection: [ops] requests kept [depth] deep in flight,
   alternating a set and a get of the same key over a private 64-key
   slice, then a [gets] read-back of every key it wrote.  The connection
   is one session, so read-your-writes makes any read-back other than the
   last write a server bug.  Returns (protocol errors, read-back
   mismatches). *)
let pipelined_client ~port ~ops ~depth conn =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd and oc = Unix.out_channel_of_descr fd in
  let errors = ref 0 and last = Array.make 64 None in
  let reply_line () =
    let line = input_line ic in
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  (* A get's reply: VALUE blocks up to END.  The first block's data. *)
  let rec values first =
    match String.split_on_char ' ' (reply_line ()) with
    | [ "END" ] -> first
    | "VALUE" :: _ :: _ :: bytes :: _ ->
      let data = really_input_string ic (int_of_string bytes) in
      ignore (really_input_string ic 2);
      values (if Option.is_none first then Some data else first)
    | _ ->
      incr errors;
      first
  in
  let key k = Printf.sprintf "c%d:k%d" conn k in
  let send i =
    let k = i / 2 mod 64 in
    if i mod 2 = 0 then begin
      let data = Printf.sprintf "v%d.%d" conn i in
      Printf.fprintf oc "set %s 0 0 %d\r\n%s\r\n" (key k) (String.length data) data;
      last.(k) <- Some data
    end
    else Printf.fprintf oc "get %s\r\n" (key k);
    flush oc
  in
  let complete i =
    if i mod 2 = 0 then (if not (String.equal (reply_line ()) "STORED") then incr errors)
    else ignore (values None)
  in
  for i = 0 to ops - 1 do
    if i >= depth then complete (i - depth);
    send i
  done;
  for i = max 0 (ops - depth) to ops - 1 do
    complete i
  done;
  let mismatches = ref 0 in
  Array.iteri
    (fun k written ->
      Option.iter
        (fun data ->
          Printf.fprintf oc "gets %s\r\n" (key k);
          flush oc;
          if values None <> Some data then incr mismatches)
        written)
    last;
  output_string oc "quit\r\n";
  flush oc;
  Unix.close fd;
  (!errors, !mismatches)

let test_server_pipelined_readback () =
  let module Server = Mdcc_wire.Server in
  let srv = Server.create ~partitions:4 ~port:0 () in
  let server = Domain.spawn (fun () -> Server.run srv) in
  let port = Server.port srv in
  let results =
    Fun.protect
      ~finally:(fun () ->
        Loop.post (Server.loop srv) (fun () ->
            Server.shutdown srv ~on_done:(fun () -> Loop.request_stop (Server.loop srv)));
        Domain.join server)
      (fun () ->
        List.init 4 (fun conn ->
            Domain.spawn (fun () -> pipelined_client ~port ~ops:400 ~depth:8 conn))
        |> List.map Domain.join)
  in
  Alcotest.(check (list (pair int int)))
    "4 connections: no protocol errors, no read-back mismatches"
    [ (0, 0); (0, 0); (0, 0); (0, 0) ]
    results

let suite =
  [
    Alcotest.test_case "loop timers: firing order" `Quick test_loop_timer_order;
    Alcotest.test_case "loop timers: cancellation" `Quick test_loop_timer_cancel;
    Alcotest.test_case "loop timers: set from a callback" `Quick
      test_loop_timer_from_callback;
    Alcotest.test_case "parser: pinned stream, any chunking" `Quick test_parser_pinned;
    Alcotest.test_case "parser: seeded random chunk boundaries" `Quick
      test_parser_random_chunks;
    Alcotest.test_case "parser: malformed input" `Quick test_parser_malformed;
    Alcotest.test_case "parser: limits and truncation" `Quick test_parser_limits;
    QCheck_alcotest.to_alcotest prop_parser_matches_model;
    Alcotest.test_case "handler: pinned conversation" `Quick test_handler_conversation;
    Alcotest.test_case "handler: a txn past its cap aborts" `Quick test_handler_txn_cap;
    Alcotest.test_case "handler: live metrics exposition" `Quick test_handler_metrics;
    Alcotest.test_case "parser: resync counter" `Quick test_parser_resync_counter;
    Alcotest.test_case "wire stack over the simulated runtime" `Quick test_wire_over_sim;
    Alcotest.test_case "socket loop meters Messages.size_of" `Quick test_loop_meter_size_of;
    Alcotest.test_case "loop listen failure closes its socket" `Quick
      test_loop_listen_failure;
    Alcotest.test_case "server: pipelined load, gets read-back" `Quick
      test_server_pipelined_readback;
    Alcotest.test_case "server_cli: port in use exits 2" `Quick test_server_port_in_use;
    Alcotest.test_case "server_cli: SIGTERM graceful drain" `Quick test_server_sigterm;
    Alcotest.test_case "server_cli: live metrics over TCP" `Quick test_server_metrics;
    Alcotest.test_case "server_cli: port out of range exits 2" `Quick
      test_server_port_out_of_range;
  ]
