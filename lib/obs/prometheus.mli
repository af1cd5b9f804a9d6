(** Prometheus text exposition (version 0.0.4) of a {!Registry.t}.

    Counters render as [mdcc_<key>_total] with [# TYPE counter], gauges
    as [mdcc_<key>] with [# TYPE gauge], histograms with fixed
    millisecond buckets ([le] ∈ 0.1 … 1000, plus +Inf), [_sum] and
    [_count].  Keys are sanitized (every byte outside [[a-zA-Z0-9_:]]
    becomes ['_']); keys that collide after sanitization are combined
    (counters and histogram samples sum, gauges keep one value).  Output
    is a pure function of the registry: kinds render counters, gauges,
    then histograms, each kind's families in sorted metric-name order,
    so identical registries render byte-identically. *)

val render : Registry.t -> string
(** The full exposition body, ready to serve as
    [Content-Type: text/plain; version=0.0.4]. *)

val metric_name : string -> string
(** ["mdcc_"] + the sanitized registry key (no family suffix). *)

val escape_help : string -> string
(** Escape [\ ] and newline for HELP lines. *)
