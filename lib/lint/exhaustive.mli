(** R7 — protocol exhaustiveness for open [payload] dispatch matches.

    [Network.payload] is extensible, so receivers must carry a wildcard arm
    for foreign constructors — and that wildcard silently swallows any
    forgotten constructor of the receiver's {e own} family.  R7 extracts
    every [type ... payload += ...] constructor set and every dispatch
    match, then (cross-file) demands that a non-delegating wildcard be
    preceded by an explicit arm for every constructor of the family it
    dispatches on.  Scope: lib/core, lib/paxos, lib/protocols. *)

type summary
(** Per-file extract: payload constructor declarations + dispatch sites. *)

type families
(** Link result: family owner module -> sorted constructor set. *)

val summarize : rel:string -> Parsetree.structure -> summary

val link : decls:summary list -> families
(** Join every file's constructor declarations into family sets. *)

val check : families -> rel:string -> summary -> Finding.t list
(** [R7-unhandled] findings for this file's dispatch sites. *)
