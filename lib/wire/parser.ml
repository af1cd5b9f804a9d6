type item =
  | Req of Protocol.request
  | Bad of string
  | Junk

type mode =
  | Line  (* scanning for the next \n-terminated command line *)
  | Data  (* waiting for d_bytes + \r\n of payload; the header is in d_* *)
  | Skip_data  (* discarding [skip] bytes of a rejected block *)
  | Skip_line  (* discarding the tail of an overlong line *)

type t = {
  mutable buf : bytes;
  mutable start : int;  (* first unconsumed byte *)
  mutable len : int;  (* unconsumed bytes from [start] *)
  mutable scan : int;  (* prefix of [len] already searched for \n *)
  out : item Queue.t;
  mutable mode : mode;
  mutable resyncs : int;  (* times we entered a Skip_* recovery mode *)
  (* The [set]/[cas] header a [Data] block belongs to. *)
  mutable d_key : string;
  mutable d_flags : int;
  mutable d_exptime : int;
  mutable d_bytes : int;
  mutable d_noreply : bool;
  mutable d_cas : int;  (* the cas token; -1 for set *)
  mutable skip : int;  (* bytes left to discard in [Skip_data] *)
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
    d_key = "";
    d_flags = 0;
    d_exptime = 0;
    d_bytes = 0;
    d_noreply = false;
    d_cas = -1;
    skip = 0;
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
(* In-place scanners                                                   *)
(* ------------------------------------------------------------------ *)

(* Every scanner is a top-level function over [buf] and explicit indices:
   a local recursive closure would be allocated on each call.  A token is
   a maximal run of non-space bytes; [s, e) below is a token's extent and
   [stop] the end of the line. *)

(* The first \n in [i, stop), or -1. *)
let rec find_newline buf i stop =
  if i >= stop then -1 else if Bytes.get buf i = '\n' then i else find_newline buf (i + 1) stop

let rec skip_spaces buf i stop =
  if i < stop && Bytes.get buf i = ' ' then skip_spaces buf (i + 1) stop else i

let rec token_end buf i stop =
  if i < stop && Bytes.get buf i <> ' ' then token_end buf (i + 1) stop else i

(* The start of the next token after the one starting at [s], or [stop]. *)
let next_token buf s stop = skip_spaces buf (token_end buf s stop) stop

let rec count_tokens buf i stop n =
  if i >= stop then n else count_tokens buf (next_token buf i stop) stop (n + 1)

let rec same_from buf s lit j =
  j >= String.length lit || (Bytes.get buf (s + j) = lit.[j] && same_from buf s lit (j + 1))

let is buf s e lit = e - s = String.length lit && same_from buf s lit 0

(* The token is a decimal number: digits only (no sign, base prefix or
   underscore, unlike [int_of_string]) and at most [max_int].  -1 when it
   is not. *)
let rec nat_from buf i e acc =
  if i >= e then acc
  else
    match Bytes.get buf i with
    | '0' .. '9' as c ->
      let d = Char.code c - Char.code '0' in
      if acc > (max_int - d) / 10 then -1 else nat_from buf (i + 1) e ((acc * 10) + d)
    | _ -> -1

let nat buf s e = if s >= e then -1 else nat_from buf s e 0

let rec printable buf i e =
  i >= e
  ||
  let c = Bytes.get buf i in
  c > ' ' && c <> '\x7f' && printable buf (i + 1) e

let key_ok t buf s e = e > s && e - s <= t.max_key && printable buf s e

let rec keys_ok t buf i stop =
  i >= stop
  ||
  let e = token_end buf i stop in
  key_ok t buf i e && keys_ok t buf (skip_spaces buf e stop) stop

let sub buf s e = Bytes.sub_string buf s (e - s)

(* The tokens of [lo, i) as strings, in order: walked right to left, so
   the list is built without a reversal. *)
let rec tokens_before buf lo i acc =
  if i > lo && Bytes.get buf (i - 1) = ' ' then tokens_before buf lo (i - 1) acc
  else if i <= lo then acc
  else token_back buf lo i (i - 1) acc

and token_back buf lo e s acc =
  if s > lo && Bytes.get buf (s - 1) <> ' ' then token_back buf lo e (s - 1) acc
  else tokens_before buf lo s (sub buf s e :: acc)

(* ------------------------------------------------------------------ *)
(* Command-line parsing                                                *)
(* ------------------------------------------------------------------ *)

(* A bad header: with a parseable positive byte count, skip the announced
   block so the payload is not replayed as commands.  [bytes] is -1 when
   there is none. *)
let fail t ~bytes msg =
  emit t (Bad msg);
  if bytes > 0 then begin
    t.skip <- bytes + 2;
    resync t Skip_data
  end

(* [set]/[cas] arguments from [a]: key flags exptime bytes [cas] [noreply].
   On success switch to Data mode. *)
let parse_store t buf a stop ~cas =
  let ke = token_end buf a stop in
  let fs = skip_spaces buf ke stop in
  let fe = token_end buf fs stop in
  let xs = skip_spaces buf fe stop in
  let xe = token_end buf xs stop in
  let bs = skip_spaces buf xe stop in
  let be = token_end buf bs stop in
  if bs >= stop then fail t ~bytes:(-1) "bad command line format"
  else begin
    (* a count whose block and \r\n would pass [max_int] is no count *)
    let bytes = match nat buf bs be with b when b > max_int - 2 -> -1 | b -> b in
    let after = skip_spaces buf be stop in
    (* cas's token comes first; then nothing or a lone [noreply] at [r] *)
    let has_tok = cas && after < stop in
    let r = if has_tok then next_token buf after stop else after in
    let re = token_end buf r stop in
    let junk = r < stop && not (is buf r re "noreply" && skip_spaces buf re stop >= stop) in
    if junk then fail t ~bytes "bad command line format"
    else if not (key_ok t buf a ke) then fail t ~bytes "bad key"
    else if bytes < 0 then fail t ~bytes "bad command line format"
    else if bytes > t.max_data then fail t ~bytes "object too large"
    else begin
      let flags = nat buf fs fe and exptime = nat buf xs xe in
      let cas_tok = if has_tok then nat buf after (token_end buf after stop) else -1 in
      if flags < 0 || exptime < 0 || (cas && not has_tok) then
        fail t ~bytes "bad command line format"
      else if cas && cas_tok < 0 then fail t ~bytes "bad cas token"
      else begin
        t.d_key <- sub buf a ke;
        t.d_flags <- flags;
        t.d_exptime <- exptime;
        t.d_bytes <- bytes;
        t.d_noreply <- r < stop;
        t.d_cas <- cas_tok;
        t.mode <- Data
      end
    end
  end

let parse_get t buf a stop ~with_cas =
  if a >= stop then emit t (Bad "no keys")
  else if keys_ok t buf a stop then
    emit t (Req (Get { keys = tokens_before buf a stop []; with_cas }))
  else emit t (Bad "bad key")

(* [delete key [noreply]] and [read key [level]]: one key and at most one
   more token. *)
let parse_keyed t buf a stop ~delete =
  let ke = token_end buf a stop in
  let o = skip_spaces buf ke stop in
  let oe = token_end buf o stop in
  if not (key_ok t buf a ke && skip_spaces buf oe stop >= stop) then emit t (Bad "bad key")
  else if delete then
    if o >= stop then emit t (Req (Delete { key = sub buf a ke; noreply = false }))
    else if is buf o oe "noreply" then emit t (Req (Delete { key = sub buf a ke; noreply = true }))
    else emit t (Bad "bad key")
  else if o >= stop then emit t (Req (Read { key = sub buf a ke; level = `Session }))
  else
    match Protocol.level_of_string (sub buf o oe) with
    | Some level -> emit t (Req (Read { key = sub buf a ke; level }))
    | None -> emit t (Bad "bad read level")

(* The verbs that take no key: exact token counts. *)
let parse_other t buf vs ve a stop =
  match count_tokens buf a stop 0 with
  | 0 ->
    emit t
      (if is buf vs ve "txn" then Req Txn
       else if is buf vs ve "commit" then Req Commit
       else if is buf vs ve "abort" then Req Abort
       else if is buf vs ve "stats" then Req Stats
       else if is buf vs ve "metrics" then Req Metrics
       else if is buf vs ve "version" then Req Version
       else if is buf vs ve "quit" then Req Quit
       else Junk)
  | 1 when is buf vs ve "stats" && is buf a (token_end buf a stop) "detail" ->
    emit t (Req Stats_detail)
  (* An HTTP request line on the ASCII port: curl / a Prometheus scrape
     job asking for /metrics.  The handler answers with a full HTTP
     response and closes, so the request's header lines are never
     interpreted as commands. *)
  | 2 when is buf vs ve "GET" ->
    let pe = token_end buf a stop in
    let v = skip_spaces buf pe stop in
    let version_end = token_end buf v stop in
    if version_end - v >= 5 && is buf v (v + 5) "HTTP/" then emit t (Req (Http_get (sub buf a pe)))
    else emit t Junk
  | _ -> emit t Junk

(* The command line [ls, stop) of [buf], tokenised where it lies. *)
let parse_line t buf ls stop =
  let vs = skip_spaces buf ls stop in
  let ve = token_end buf vs stop in
  let a = skip_spaces buf ve stop in
  if vs >= stop then emit t Junk
  else if is buf vs ve "get" then parse_get t buf a stop ~with_cas:false
  else if is buf vs ve "gets" then parse_get t buf a stop ~with_cas:true
  else if is buf vs ve "set" then parse_store t buf a stop ~cas:false
  else if is buf vs ve "cas" then parse_store t buf a stop ~cas:true
  else if is buf vs ve "delete" then parse_keyed t buf a stop ~delete:true
  else if is buf vs ve "read" then parse_keyed t buf a stop ~delete:false
  else parse_other t buf vs ve a stop

(* ------------------------------------------------------------------ *)
(* The chunk-boundary-oblivious driver                                 *)
(* ------------------------------------------------------------------ *)

let data_item t data =
  let store =
    { Protocol.s_key = t.d_key; s_flags = t.d_flags; s_exptime = t.d_exptime; s_data = data;
      s_noreply = t.d_noreply }
  in
  if t.d_cas < 0 then Req (Set store) else Req (Cas { store; cas = t.d_cas })

let rec advance t =
  match t.mode with
  | Line ->
    let nl = find_newline t.buf (t.start + t.scan) (t.start + t.len) in
    if nl >= 0 then begin
      let ls = t.start in
      let stop = if nl > ls && Bytes.get t.buf (nl - 1) = '\r' then nl - 1 else nl in
      (* consuming moves no bytes: the line stays in place until the next feed *)
      consume t (nl - ls + 1);
      parse_line t t.buf ls stop;
      advance t
    end
    else begin
      t.scan <- t.len;
      if t.len > t.max_line then begin
        emit t (Bad "line too long");
        consume t t.len;
        resync t Skip_line
      end
    end
  | Data ->
    let need = t.d_bytes + 2 in
    if t.len >= need then begin
      let ok =
        Bytes.get t.buf (t.start + t.d_bytes) = '\r'
        && Bytes.get t.buf (t.start + t.d_bytes + 1) = '\n'
      in
      if ok then begin
        let data = Bytes.sub_string t.buf t.start t.d_bytes in
        consume t need;
        t.mode <- Line;
        emit t (data_item t data);
        advance t
      end
      else begin
        consume t t.d_bytes;
        emit t (Bad "bad data chunk");
        resync t Skip_line;
        advance t
      end
    end
  | Skip_data ->
    let take = Stdlib.min t.len t.skip in
    consume t take;
    t.skip <- t.skip - take;
    if t.skip = 0 then begin
      t.mode <- Line;
      advance t
    end
  | Skip_line ->
    let nl = find_newline t.buf (t.start + t.scan) (t.start + t.len) in
    if nl >= 0 then begin
      consume t (nl - t.start + 1);
      t.mode <- Line;
      advance t
    end
    else consume t t.len

let feed t b off n =
  if n > 0 then begin
    ensure_room t n;
    Bytes.blit b off t.buf (t.start + t.len) n;
    t.len <- t.len + n;
    advance t
  end

let feed_string t s = feed t (Bytes.unsafe_of_string s) 0 (String.length s)

let next t = Queue.take_opt t.out
