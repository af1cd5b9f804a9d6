type item =
  | Req of Protocol.request
  | Bad of string
  | Junk

(* A parsed [set]/[cas] header waiting for its data block. *)
type header = {
  hd_key : string;
  hd_flags : int;
  hd_exptime : int;
  hd_bytes : int;
  hd_noreply : bool;
  hd_cas : int option;  (* [Some tok] for cas *)
}

type mode =
  | Line  (* scanning for the next \n-terminated command line *)
  | Data of header  (* waiting for hd_bytes + \r\n of payload *)
  | Skip_data of { mutable remaining : int }  (* discarding a rejected block *)
  | Skip_line  (* discarding the tail of an overlong line *)

type t = {
  mutable buf : bytes;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* unconsumed bytes from [start] *)
  mutable scan : int;  (* prefix of [len] already searched for \n *)
  out : item Queue.t;
  mutable mode : mode;
  mutable resyncs : int;  (* times we entered a Skip_* recovery mode *)
  max_key : int;
  max_data : int;
  max_line : int;
}

let create ?(max_key = 250) ?(max_data = 1024 * 1024) ?(max_line = 8192) () =
  {
    buf = Bytes.create 4096;
    start = 0;
    len = 0;
    scan = 0;
    out = Queue.create ();
    mode = Line;
    resyncs = 0;
    max_key;
    max_data;
    max_line;
  }

let resyncs t = t.resyncs

let resync t mode =
  t.resyncs <- t.resyncs + 1;
  t.mode <- mode

let consume t n =
  t.start <- t.start + n;
  t.len <- t.len - n;
  t.scan <- 0;
  if t.len = 0 then t.start <- 0

let ensure_room t n =
  let cap = Bytes.length t.buf in
  if t.start + t.len + n > cap then
    if t.len + n <= cap then begin
      (* reclaim the consumed prefix *)
      Bytes.blit t.buf t.start t.buf 0 t.len;
      t.start <- 0
    end
    else begin
      let cap' = ref (cap * 2) in
      while t.len + n > !cap' do
        cap' := !cap' * 2
      done;
      let buf' = Bytes.create !cap' in
      Bytes.blit t.buf t.start buf' 0 t.len;
      t.buf <- buf';
      t.start <- 0
    end

let emit t item = Queue.add item t.out

(* ------------------------------------------------------------------ *)
(* Command-line parsing                                                *)
(* ------------------------------------------------------------------ *)

let key_ok t k =
  let n = String.length k in
  n > 0 && n <= t.max_key && String.for_all (fun ch -> ch > ' ' && ch <> '\x7f') k

let nonneg_int s =
  match int_of_string_opt s with Some n when n >= 0 -> Some n | Some _ | None -> None

(* [set]/[cas] header: on success switch to Data mode; on a bad header with
   a parseable byte count, skip the announced block so the payload is not
   replayed as commands. *)
let parse_store t ~cas tokens =
  let fail ?bytes msg =
    emit t (Bad msg);
    match bytes with
    | Some b when b > 0 -> resync t (Skip_data { remaining = b + 2 })
    | Some _ | None -> ()
  in
  match tokens with
  | key :: flags :: exptime :: bytes :: rest ->
    let bytes_opt = nonneg_int bytes in
    let cas_tok, rest =
      if cas then match rest with tok :: more -> (Some tok, more) | [] -> (None, [])
      else (None, rest)
    in
    let noreply, junk =
      match rest with
      | [] -> (false, false)
      | [ "noreply" ] -> (true, false)
      | _ -> (false, true)
    in
    if junk then fail ?bytes:bytes_opt "bad command line format"
    else if not (key_ok t key) then fail ?bytes:bytes_opt "bad key"
    else begin
      match (nonneg_int flags, nonneg_int exptime, bytes_opt) with
      | _, _, None -> fail "bad command line format"
      | _, _, Some b when b > t.max_data -> fail ~bytes:b "object too large"
      | Some f, Some e, Some b -> (
        match (cas, cas_tok) with
        | false, _ ->
          t.mode <- Data { hd_key = key; hd_flags = f; hd_exptime = e; hd_bytes = b;
                           hd_noreply = noreply; hd_cas = None }
        | true, Some tok -> (
          match nonneg_int tok with
          | Some c ->
            t.mode <- Data { hd_key = key; hd_flags = f; hd_exptime = e; hd_bytes = b;
                             hd_noreply = noreply; hd_cas = Some c }
          | None -> fail ~bytes:b "bad cas token")
        | true, None -> fail ~bytes:b "bad command line format")
      | _, _, Some b -> fail ~bytes:b "bad command line format"
    end
  | _ -> fail "bad command line format"

let parse_get t keys ~with_cas =
  if keys = [] then emit t (Bad "no keys")
  else if List.for_all (key_ok t) keys then emit t (Req (Get { keys; with_cas }))
  else emit t (Bad "bad key")

let parse_line t line =
  let tokens = List.filter (fun s -> s <> "") (String.split_on_char ' ' line) in
  match tokens with
  | [] -> emit t Junk
  | "get" :: keys -> parse_get t keys ~with_cas:false
  | "gets" :: keys -> parse_get t keys ~with_cas:true
  | "set" :: rest -> parse_store t ~cas:false rest
  | "cas" :: rest -> parse_store t ~cas:true rest
  | [ "delete"; key ] when key_ok t key -> emit t (Req (Delete { key; noreply = false }))
  | [ "delete"; key; "noreply" ] when key_ok t key ->
    emit t (Req (Delete { key; noreply = true }))
  | "delete" :: _ -> emit t (Bad "bad key")
  | [ "read"; key ] when key_ok t key -> emit t (Req (Read { key; level = `Session }))
  | [ "read"; key; lvl ] when key_ok t key -> (
    match Protocol.level_of_string lvl with
    | Some level -> emit t (Req (Read { key; level }))
    | None -> emit t (Bad "bad read level"))
  | "read" :: _ -> emit t (Bad "bad key")
  | [ "txn" ] -> emit t (Req Txn)
  | [ "commit" ] -> emit t (Req Commit)
  | [ "abort" ] -> emit t (Req Abort)
  | [ "stats" ] -> emit t (Req Stats)
  | [ "stats"; "detail" ] -> emit t (Req Stats_detail)
  | [ "metrics" ] -> emit t (Req Metrics)
  (* An HTTP request line on the ASCII port: curl / a Prometheus scrape
     job asking for /metrics.  The handler answers with a full HTTP
     response and closes, so the request's header lines are never
     interpreted as commands. *)
  | [ "GET"; path; version ]
    when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
    emit t (Req (Http_get path))
  | [ "version" ] -> emit t (Req Version)
  | [ "quit" ] -> emit t (Req Quit)
  | _ -> emit t Junk

(* ------------------------------------------------------------------ *)
(* The chunk-boundary-oblivious driver                                 *)
(* ------------------------------------------------------------------ *)

let find_newline t =
  let stop = t.start + t.len in
  let rec go i = if i >= stop then None else if Bytes.get t.buf i = '\n' then Some i else go (i + 1) in
  go (t.start + t.scan)

let rec advance t =
  match t.mode with
  | Line -> (
    match find_newline t with
    | Some abs ->
      let line_len = abs - t.start in
      let line_len = if line_len > 0 && Bytes.get t.buf (abs - 1) = '\r' then line_len - 1 else line_len in
      let line = Bytes.sub_string t.buf t.start line_len in
      consume t (abs - t.start + 1);
      parse_line t line;
      advance t
    | None ->
      t.scan <- t.len;
      if t.len > t.max_line then begin
        emit t (Bad "line too long");
        consume t t.len;
        resync t Skip_line
      end)
  | Data hd ->
    let need = hd.hd_bytes + 2 in
    if t.len >= need then begin
      let ok =
        Bytes.get t.buf (t.start + hd.hd_bytes) = '\r'
        && Bytes.get t.buf (t.start + hd.hd_bytes + 1) = '\n'
      in
      if ok then begin
        let data = Bytes.sub_string t.buf t.start hd.hd_bytes in
        consume t need;
        t.mode <- Line;
        let store =
          { Protocol.s_key = hd.hd_key; s_flags = hd.hd_flags; s_exptime = hd.hd_exptime;
            s_data = data; s_noreply = hd.hd_noreply }
        in
        emit t
          (match hd.hd_cas with
          | None -> Req (Set store)
          | Some cas -> Req (Cas { store; cas }));
        advance t
      end
      else begin
        consume t hd.hd_bytes;
        emit t (Bad "bad data chunk");
        resync t Skip_line;
        advance t
      end
    end
  | Skip_data s ->
    let take = Stdlib.min t.len s.remaining in
    consume t take;
    s.remaining <- s.remaining - take;
    if s.remaining = 0 then begin
      t.mode <- Line;
      advance t
    end
  | Skip_line -> (
    match find_newline t with
    | Some abs ->
      consume t (abs - t.start + 1);
      t.mode <- Line;
      advance t
    | None ->
      consume t t.len)

let feed t b off n =
  if n > 0 then begin
    ensure_room t n;
    Bytes.blit b off t.buf (t.start + t.len) n;
    t.len <- t.len + n;
    advance t
  end

let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)

let next t = Queue.take_opt t.out
