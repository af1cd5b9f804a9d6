(** Deterministic, splittable pseudo-random number generator.

    The whole repository runs on simulated time, so reproducibility of an
    experiment reduces to reproducibility of its random choices.  This module
    implements SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state, good
    statistical quality, and an O(1) [split] that yields an independent stream
    so that each simulated client/node can own its own generator without the
    streams interfering. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from an integer seed.  Equal seeds
    give equal streams. *)

val copy : t -> t
(** [copy t] duplicates the current state; the copy evolves independently. *)

val split : t -> t
(** [split t] derives a new independent generator and advances [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in the inclusive range [\[lo, hi\]]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** Lognormal sample: [exp (mu + sigma * z)] for a standard normal [z].  Used
    for WAN latency jitter, whose empirical distribution is heavy-tailed. *)

type fcell = { mutable f : float }
(** A single-field float record: stored flat, so writing [c.f] is a raw
    float store and reading it boxes nothing in the reader's own body. *)

val lognormal_into : t -> mu:float -> sigma:float -> fcell -> unit
(** [lognormal_into t ~mu ~sigma cell] stores the draw {!lognormal} would
    return in [cell.f] (same stream, same bits) and allocates nothing: a
    caller that draws per message keeps one cell instead of receiving a
    boxed float per draw. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
