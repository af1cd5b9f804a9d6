(** Repo-relative paths, and the one table of where each rule applies.

    The scoped rules are [R1-simtime] (lib/core, lib/paxos, lib/chaos),
    [R3] (lib/core, lib/paxos, lib/util), [R4] (lib/), [R6] (lib/core,
    lib/obs, lib/paxos, lib/protocols, lib/storage, lib/wire), [R6-runtime]
    (lib/core/acceptor.ml) and [R7] (lib/core, lib/paxos, lib/protocols);
    every other rule applies to every scanned file. *)

val norm_rel : string -> string
(** Normalise a repo-relative path: strip a leading ["./"], forward
    slashes. *)

val starts_with : prefix:string -> string -> bool
(** OCaml 5.1's [String.starts_with], rebuilt so the linter has no
    stdlib-version sensitivity. *)

val module_name : string -> string
(** ["lib/core/messages.ml"] -> ["Messages"]. *)

val applies : rule:string -> string -> bool
(** [applies ~rule rel]: does [rule] (a rule id or a family) cover the
    normalised path [rel]?  An entry for the rule id beats one for its
    family. *)
