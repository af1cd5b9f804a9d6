(** The experiment runner: closed-loop clients over any protocol harness.

    Reproduces the paper's measurement methodology: [clients_per_dc]
    emulated browsers per data center issue transactions back-to-back with
    no think time (the paper foregoes wait times to stress the system); a
    warm-up window is excluded; response time is measured from submission
    to the commit/abort decision.  Events (e.g. a data-center failure at a
    given time) can be injected into the run. *)

type spec = {
  clients_per_dc : int array;
  warmup : float;  (** ms *)
  duration : float;  (** measured window after warm-up, ms *)
  drain : float;  (** extra time to let in-flight txns decide, ms *)
  seed : int;
}

val run :
  ?events:(float * (unit -> unit)) list ->
  Mdcc_protocols.Harness.t ->
  Generator.t ->
  spec ->
  Metrics.t
(** Run the experiment to completion and return the measurements.  The
    engine must be fresh (time 0). *)
