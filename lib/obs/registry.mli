(** Deterministic metrics registry: counters, gauges, and histograms keyed
    by name.  All values derive from sim time and protocol events, never the
    wall clock, so a snapshot is a pure function of the run.  Snapshots
    iterate in sorted name order ({!Mdcc_util.Table.sorted_bindings}) and
    render byte-identically across identical runs. *)

type t

val create : unit -> t

val incr : t -> ?by:int -> string -> unit
(** Add [by] (default 1) to a counter, creating it at zero first. *)

type counter
(** A handle on one named counter for call sites that bump it per message:
    the name is looked up once, not on every bump. *)

val counter_handle : t -> string -> counter
(** [counter_handle t name] creates no counter: the registry's contents
    are as if the handle's bumps were {!incr} calls on [name]. *)

val add : counter -> int -> unit
(** [add h n] is [incr t ~by:n name] for [h]'s registry and name.  Allocates
    nothing once the counter exists. *)

val set_gauge : t -> string -> int -> unit

val add_gauge : t -> string -> int -> unit
(** Add a (possibly negative) delta to a gauge, creating it at zero. *)

val observe : t -> string -> float -> unit
(** Record one sample into a histogram, creating it empty first. *)

val ensure_hist : t -> string -> unit
(** Create a histogram with no samples if absent (so {!merge} and
    renderers see it even before the first observation). *)

val counter : t -> string -> int
(** Current value of a counter ([0] if never incremented). *)

val gauge : t -> string -> int

val hist_count : t -> string -> int
(** Number of samples observed into a histogram. *)

val counter_bindings : t -> (string * int) list
val gauge_bindings : t -> (string * int) list
(** Current values in sorted name order. *)

val hist_bindings : t -> (string * float list) list
(** Histograms in sorted name order, samples in observation order;
    includes empty histograms created by {!ensure_hist}. *)

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into]: counters add, gauges take
    [src]'s value (last write wins, as in a sequential run), histogram
    samples append in observation order and histogram {e names} union
    even when [src] recorded no samples.  Iteration is in sorted name
    order, so merging the same sources in the same order is
    deterministic.  [src] is unchanged. *)

val to_json : t -> Json.t
(** [{"counters":{..},"gauges":{..},"histograms":{name:{"count":..,"mean":..,
    "min":..,"max":..,"p50":..,"p95":..,"p99":..}}}] with every object's
    members in sorted name order. *)
