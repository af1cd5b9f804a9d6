type level = [ `Local | `Session | `Majority | `Snapshot ]

type store = {
  s_key : string;
  s_flags : int;
  s_exptime : int;
  s_data : string;
  s_noreply : bool;
}

type request =
  | Get of { keys : string list; with_cas : bool }
  | Set of store
  | Cas of { store : store; cas : int }
  | Delete of { key : string; noreply : bool }
  | Read of { key : string; level : level }
  | Txn
  | Commit
  | Abort
  | Stats
  | Stats_detail
  | Metrics
  | Http_get of string
  | Version
  | Quit

type hit = { h_key : string; h_flags : int; h_data : string; h_cas : int }

let level_of_string = function
  | "local" -> Some `Local
  | "session" -> Some `Session
  | "majority" -> Some `Majority
  | "snapshot" -> Some `Snapshot
  | _ -> None

let level_name = function
  | `Local -> "local"
  | `Session -> "session"
  | `Majority -> "majority"
  | `Snapshot -> "snapshot"

(* The digits of [m <= 0], most significant first: negated, so [min_int]
   does not overflow. *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (m mod 10)))

(* [Buffer.add_string buf (string_of_int n)] without building the
   string. *)
let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let render_hit buf ~with_cas h =
  Buffer.add_string buf "VALUE ";
  Buffer.add_string buf h.h_key;
  Buffer.add_char buf ' ';
  add_int buf h.h_flags;
  Buffer.add_char buf ' ';
  add_int buf (String.length h.h_data);
  if with_cas then begin
    Buffer.add_char buf ' ';
    add_int buf h.h_cas
  end;
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf h.h_data;
  Buffer.add_string buf "\r\n"

let end_line = "END\r\n"
let stored = "STORED\r\n"
let not_stored = "NOT_STORED\r\n"
let exists = "EXISTS\r\n"
let not_found = "NOT_FOUND\r\n"
let deleted = "DELETED\r\n"
let started = "STARTED\r\n"
let queued = "QUEUED\r\n"
let committed = "COMMITTED\r\n"
let aborted reason = Printf.sprintf "ABORTED %s\r\n" reason
let error = "ERROR\r\n"
let client_error msg = Printf.sprintf "CLIENT_ERROR %s\r\n" msg
let server_error msg = Printf.sprintf "SERVER_ERROR %s\r\n" msg
let stat_line name value = Printf.sprintf "STAT %s %s\r\n" name value
let version_line v = Printf.sprintf "VERSION %s\r\n" v

(* Minimal HTTP/1.0 response for scrapers that speak GET instead of the
   ASCII protocol (curl, a Prometheus scrape job).  Connection: close —
   the handler tears the connection down after the body, which also stops
   the request's remaining header lines from being parsed as commands. *)
let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let pp_store ppf verb s =
  Format.fprintf ppf "%s %s flags=%d exptime=%d bytes=%d%s%s" verb s.s_key s.s_flags
    s.s_exptime (String.length s.s_data)
    (if s.s_noreply then " noreply" else "")
    (if String.length s.s_data <= 32 then Printf.sprintf " %S" s.s_data else "")

let pp_request ppf = function
  | Get { keys; with_cas } ->
    Format.fprintf ppf "%s %s" (if with_cas then "gets" else "get") (String.concat " " keys)
  | Set s -> pp_store ppf "set" s
  | Cas { store; cas } ->
    pp_store ppf "cas" store;
    Format.fprintf ppf " cas=%d" cas
  | Delete { key; noreply } ->
    Format.fprintf ppf "delete %s%s" key (if noreply then " noreply" else "")
  | Read { key; level } -> Format.fprintf ppf "read %s %s" key (level_name level)
  | Txn -> Format.pp_print_string ppf "txn"
  | Commit -> Format.pp_print_string ppf "commit"
  | Abort -> Format.pp_print_string ppf "abort"
  | Stats -> Format.pp_print_string ppf "stats"
  | Stats_detail -> Format.pp_print_string ppf "stats detail"
  | Metrics -> Format.pp_print_string ppf "metrics"
  | Http_get path -> Format.fprintf ppf "GET %s" path
  | Version -> Format.pp_print_string ppf "version"
  | Quit -> Format.pp_print_string ppf "quit"
