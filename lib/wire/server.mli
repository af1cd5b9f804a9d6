(** One MDCC deployment behind one TCP listener.

    {!create} assembles [nodes] storage nodes (one per simulated data
    center — the wire deployment runs every replica in-process, the
    multi-DC latency being the simulator's job) and one coordinator over a
    {!Mdcc_runtime_unix.Loop}, then listens for wire-protocol clients.
    Every connection gets its own {!Mdcc_core.Session} (session
    consistency is per-connection, exactly memcached's client contract)
    feeding a {!Handler} through a {!Backend}.

    Inter-node traffic is metered with {!Mdcc_core.Messages.size_of} — the
    same byte accounting the simulated cluster installs — into the server's
    observability registry ([net.sent.*], [net.recv_bytes.*], …).

    {!shutdown} is the graceful drain: stop accepting, let in-flight
    requests and transactions finish, flush reply queues, then hand
    control back — the [server_cli] wires it to SIGTERM. *)

type t

val create :
  ?seed:int ->
  ?nodes:int ->
  ?partitions:int ->
  ?table:string ->
  ?addr:string ->
  ?port:int ->
  unit ->
  t
(** [nodes] (default 5, minimum 3) is the replication factor (simulated
    data centers); [partitions] (default 1) hash-partitions the keyspace —
    the deployment runs [nodes * partitions] storage nodes laid out by the
    simulated cluster's {!Mdcc_core.Cluster.Layout}, keys route to their
    partition's replica group by the coordinator's hash, and [stats detail]
    carries per-partition request counters.  [port] (default 11311) may be
    0 to bind an ephemeral port — read it back with {!port}.  The value
    table [table] (default ["kv"]) holds records shaped [{data; flags}]. *)

val txid_of_int : int -> string
(** The id of the server's [n]th transaction, [n >= 0]: exactly
    [Printf.sprintf "wire%06d" n], built without the format
    interpreter. *)

val loop : t -> Mdcc_runtime_unix.Loop.t
val port : t -> int
val obs : t -> Mdcc_obs.Obs.t
val coordinator : t -> Mdcc_core.Coordinator.t

val run : t -> unit
(** Drive the event loop until {!Mdcc_runtime_unix.Loop.request_stop}. *)

val shutdown : ?grace_ms:float -> t -> on_done:(unit -> unit) -> unit
(** Close the listeners, then poll every few milliseconds until every
    connection handler is idle, the coordinator has no in-flight
    transaction and all reply bytes are flushed — or [grace_ms] (default
    5000) elapsed.  [on_done] runs on the loop. *)
