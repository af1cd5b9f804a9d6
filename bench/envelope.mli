(** The bench document format, [mdcc.bench.v2], and the one baseline
    check over it.

    Every driver in [bench/] ([bench/e2e/] keeps its own format) writes
    its measurement through {!write}:

    {[
      {"schema": "mdcc.bench.v2", "bench": "events",
       "config": {"ops": 300000, "cores": 1},
       "sections": {"queue_push_pop": {"wall_s": 0.16, "minor_words_per_op": 3.0}}}
    ]}

    [config] is an object of any JSON values describing the run; {!write}
    adds [cores] itself.  A section is a flat object of numbers.
    [bench_check] is {!check} on two such files. *)

type section = (string * float) list
(** Metric name to value, in rendering order. *)

type t = {
  bench : string;  (** the driver: [events], [sweep], [sweep_profile], ... *)
  config : Mdcc_obs.Json.t;
  sections : (string * section) list;
}

val schema : string
(** ["mdcc.bench.v2"]. *)

val write :
  string -> bench:string -> config:(string * Mdcc_obs.Json.t) list -> (string * section) list -> unit
(** [write path ~bench ~config sections] renders the document to [path],
    appending [cores] (this machine's recommended domain count) to
    [config]. *)

val read : string -> (t, string) result
(** Parse and validate a document: [Error] on an unreadable file, a
    syntax error, a schema other than {!schema}, or a section holding
    anything but numbers. *)

val comparable : Mdcc_obs.Json.t -> bool
(** [false] when the config records more [jobs] than [cores]: the run
    time-sliced its domains, so its wall-clock ratios measure the
    scheduler, not the code.  A config without [cores] describes this
    machine. *)

type better = Lower | Higher

val check :
  ?out:(string -> unit) ->
  ?err:(string -> unit) ->
  ?gates:(string * better) list ->
  ?tolerance:float ->
  string ->
  string ->
  int
(** [check baseline fresh] prints to [out] (default stdout) one line per
    (section, metric) present in either file: baseline value, fresh
    value and the change in percent.  It returns the exit status:
    {ul
    {- [2] when either file fails {!read} or the two [bench] names
       differ;}
    {- [3] when a gated metric is in no baseline section, when a
       baseline section is missing from [fresh], when a baseline
       section's gated metric is missing from [fresh], or when a gated
       metric moved the wrong way by more than [tolerance] (a fraction,
       default [0.05]);}
    {- [0] otherwise.}}
    With no [gates] only the [2] cases apply.  When either config is not
    {!comparable} the values of gated metrics are not compared (a
    [SKIPPING] line says so); the presence checks still run.  Failures
    go to [err] (default stderr). *)
