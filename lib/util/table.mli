(** Table utilities: deterministic hashtable iteration, plus minimal
    aligned ASCII tables for the benchmark harness output.

    The iteration helpers exist because [Hashtbl.iter]/[fold] visit
    bindings in hash order — an order no chaos seed controls — and replay
    determinism requires every observable iteration to be a pure function
    of the run's inputs.  `mdcc_lint` rule R1 forbids direct hash-order
    iteration outside this module (and the other designated helpers). *)

val sorted_bindings : ?compare:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> ('a * 'b) list
(** All bindings of the table, sorted by key ([Stdlib.compare] by default).
    Intended for tables used with [Hashtbl.replace] semantics (at most one
    binding per key). *)

val sorted_iter : ?compare:('a -> 'a -> int) -> ('a -> 'b -> unit) -> ('a, 'b) Hashtbl.t -> unit
(** [Hashtbl.iter] in sorted key order.  Note the argument order follows
    [Hashtbl.iter]: the visitor first, the table last. *)

val sorted_keys : ?compare:('a -> 'a -> int) -> ('a, 'b) Hashtbl.t -> 'a list
(** The table's keys in sorted order. *)

val render : headers:string list -> string list list -> string
(** [render ~headers rows] lays the table out with every column padded to its
    widest cell, a separator line under the header, and one row per line. *)

val print : headers:string list -> string list list -> unit
(** [render] followed by [print_string]. *)

val fms : float -> string
(** Format a latency in milliseconds with one decimal, e.g. ["277.5"]. *)
