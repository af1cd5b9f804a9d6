(** Tagged invariant violations for the protocol core.

    A bare [failwith] or [assert false] in a protocol path tears the
    process down anonymously: a chaos replay sees the exception but not
    {e which node's} invariant died, or in what context.  `mdcc_lint`
    rule R3 forbids the bare forms in [lib/core] and [lib/paxos]; this
    module is the replacement.  [violate] raises {!Violation} carrying the
    node id and a context tag, and first hands the violation to an
    optional sink so a chaos run records it in its trace/history before
    the exception unwinds. *)

type t = { node : int option; context : string; message : string }

exception Violation of t

val to_string : t -> string

val violate : ?node:int -> context:string -> ('a, unit, string, 'b) format4 -> 'a
(** Report the violation to the current sink, then raise {!Violation}. *)

val set_sink : (t -> unit) -> unit
(** Install a hook that observes every violation just before it is
    raised.  The chaos runner points this at its history recorder. *)

val reset_sink : unit -> unit
