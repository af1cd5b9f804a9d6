(** Incremental, allocation-conscious parser for the ASCII protocol.

    Bytes arrive in arbitrary chunks ({!feed}); complete items come out of
    {!next}.  The parser owns one growable byte buffer — chunk boundaries
    never force re-parsing, consumed prefixes are reclaimed by compaction.
    Each command line is tokenised in place in that buffer, so a request
    allocates only what it hands on: its key and data strings, the request
    value, its queue cell and {!next}'s [Some].  A [get] of one key costs
    15 words and a [set] of 64 bytes 27 (test/t_alloc.ml pins 24 and 48).

    Numeric fields (flags, exptime, byte count, cas token) are decimal
    digits only, at most [max_int] ([max_int - 2] for the byte count): no
    sign, base prefix or underscore.

    Malformed input never raises and never desynchronizes the stream: a bad
    command line yields {!item.Bad} (rendered as [CLIENT_ERROR]) and
    parsing resumes at the next line; an oversized or mis-terminated data
    block is skipped byte-for-byte first, so the declared payload is not
    reinterpreted as commands. *)

type t

type item =
  | Req of Protocol.request
  | Bad of string  (** answer with [CLIENT_ERROR <msg>] *)
  | Junk  (** unknown command — answer with [ERROR] *)

val create : ?max_key:int -> ?max_data:int -> ?max_line:int -> unit -> t
(** Limits: key length (default 250, memcached's), data-block bytes
    (default 1 MiB), command-line length (default 8 KiB). *)

val feed : t -> bytes -> int -> int -> unit
(** [feed t buf off len] ingests a chunk.  The bytes are copied; the caller
    may reuse [buf] immediately (it is the event loop's scratch buffer). *)

val feed_string : t -> string -> unit

val next : t -> item option
(** The next complete item, or [None] until more bytes arrive. *)

val resyncs : t -> int
(** Times the parser entered a skip-and-resynchronize recovery (bad
    header with a declared data block, mis-terminated chunk, overlong
    line) — the [metrics] resync counter's source. *)
