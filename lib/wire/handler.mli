(** Per-connection protocol state machine.

    Requests on one connection execute strictly in arrival order: an
    asynchronous operation marks the handler busy and parsing resumes only
    when its continuation fires, so replies come back in request order and
    a pipelined [set k] … [gets k] always observes the acknowledged write.
    Responses accumulate in one buffer per pump and flush as a single
    write, keeping pipelined bursts to one syscall each way.

    The handler also owns the [txn]/[commit] extension state: between [txn]
    and [commit], [set]/[delete] are buffered (answered [QUEUED]) instead
    of submitted, and [commit] hands the whole write-set to
    {!Backend.t.b_commit} as one MDCC transaction. *)

val max_txn_ops : int
(** Writes one txn may queue (1024).  The next one is answered
    [CLIENT_ERROR txn too long], drops the buffered writes, and the txn's
    [commit] answers [ABORTED txn too long]. *)

type t

val create :
  backend:Backend.t ->
  write:(string -> unit) ->
  close:(unit -> unit) ->
  obs:Mdcc_obs.Obs.t ->
  unit ->
  t
(** [write] receives ready response bytes; [close] is called after [quit]
    (and after the farewell bytes were handed to [write]).  [obs]
    receives the live wire
    counters — per-verb requests ([wire.cmd.*]), get/cas/delete
    hits+misses, [wire.bytes_read]/[wire.bytes_written],
    [wire.parser_errors]/[wire.parser_resyncs], commit outcomes — and is
    the registry served by [metrics] / [stats detail].  The server passes
    one shared handle so every connection feeds one exposition. *)

val on_data : t -> bytes -> int -> int -> unit
(** Feed raw bytes from the socket (the loop's scratch buffer; copied). *)

val idle : t -> bool
(** No request executing and no complete unanswered request buffered — the
    per-connection drain predicate for graceful shutdown. *)
