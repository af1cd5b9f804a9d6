(** The client-facing wire protocol: memcached's ASCII text protocol with a
    transactional extension.

    The classic verbs map onto single-update MDCC transactions — [set] is a
    read-then-[Physical] write (or [Insert]), [cas] reuses the record
    version as the cas token (MDCC's [vread] {e is} a compare-and-swap
    token), [delete] a versioned tombstone.  Two extensions expose what
    memcached cannot say:

    {ul
    {- [txn] … [commit] — buffer several [set]/[delete]s and commit them as
       {e one} MDCC transaction (atomic multi-record write-set, §2);}
    {- [read <key> \[local|session|majority|snapshot\]] — a [get] with an
       explicit consistency level, surfacing {!Mdcc_core.Session.read}'s
       [?level] ([local] and [snapshot] answer a present row from the
       in-process partition stores with no message).}}

    This module is the pure vocabulary: request values produced by
    {!Parser} and response strings consumed by {!Handler}. *)

type level = [ `Local | `Session | `Majority | `Snapshot ]

type store = {
  s_key : string;
  s_flags : int;
  s_exptime : int;  (** accepted for compatibility; MDCC records don't expire *)
  s_data : string;
  s_noreply : bool;
}
(** A [set]/[cas] payload: header fields plus the data block. *)

type request =
  | Get of { keys : string list; with_cas : bool }  (** [get] / [gets] *)
  | Set of store
  | Cas of { store : store; cas : int }
  | Delete of { key : string; noreply : bool }
  | Read of { key : string; level : level }
  | Txn  (** open a transaction: subsequent writes are buffered *)
  | Commit  (** submit the buffered write-set as one transaction *)
  | Abort  (** discard the buffered write-set *)
  | Stats
  | Stats_detail  (** every live registry entry as [STAT] lines *)
  | Metrics  (** Prometheus text exposition of the live registry *)
  | Http_get of string
      (** [GET <path> HTTP/1.x] — lets [curl]/a scrape job hit
          [/metrics] on the same port; answered with an HTTP response
          and an immediate close *)
  | Version
  | Quit

type hit = { h_key : string; h_flags : int; h_data : string; h_cas : int }
(** One [VALUE] answer; [h_cas] is the MDCC record version. *)

val level_of_string : string -> level option
val level_name : level -> string

(** {1 Response rendering}

    Strings are pre-terminated with [\r\n]; {!render_hit} appends the
    two-line [VALUE] block to a caller-owned buffer so multi-key answers
    build one contiguous write. *)

val render_hit : Buffer.t -> with_cas:bool -> hit -> unit

val end_line : string
val stored : string
val not_stored : string
val exists : string
val not_found : string
val deleted : string

val started : string
(** answer to [txn] *)

val queued : string
(** answer to a buffered write *)

val committed : string

val aborted : string -> string
(** [ABORTED <reason>] *)

val error : string
(** unknown command *)

val client_error : string -> string
val server_error : string -> string
val stat_line : string -> string -> string
val version_line : string -> string

val http_response : status:string -> content_type:string -> string -> string
(** [http_response ~status ~content_type body]: a complete HTTP/1.0
    response ([Connection: close]) carrying [body]. *)

val pp_request : Format.formatter -> request -> unit
(** Canonical one-line rendering, used by the parser tests to pin the
    request stream independently of chunk boundaries. *)
