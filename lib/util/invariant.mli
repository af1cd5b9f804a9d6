(** Tagged invariant violations for the protocol core.

    A bare [failwith] or [assert false] in a protocol path tears the
    process down anonymously: a chaos replay sees the exception but not
    {e which node's} invariant died, or in what context.  `mdcc_lint`
    rule R3 forbids the bare forms in [lib/core] and [lib/paxos]; this
    module is the replacement.  [violate] raises {!Violation} carrying the
    node id and a context tag.  A chaos run catches it around the engine
    loop and records it as an [Event.Violation] in its history and trace
    ([Mdcc_chaos.Runner.run]). *)

type t = { node : int option; context : string; message : string }

exception Violation of t

val to_string : t -> string

val violate : ?node:int -> context:string -> ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Violation} with the formatted message. *)
