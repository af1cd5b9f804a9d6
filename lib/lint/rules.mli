(** The three mdcc_lint rule families, as a syntactic Parsetree pass.

    - R1 determinism: [R1-random] (any [Random.*]), [R1-wallclock]
      ([Sys.time], [Unix.gettimeofday], [Unix.time]), [R1-hash-iter]
      ([Hashtbl.iter]/[fold]/[to_seq*]/[randomize] and the same through any
      [*.Tbl] functor instance), [R1-simtime] (record fields named [*_at]
      typed bare [float] inside lib/core, lib/paxos, lib/chaos).
    - R2 cross-node aliasing: [R2-payload] (mutable state syntactically
      reachable from a [type payload += ...] constructor, through the type
      declarations collected from the scanned files), [R2-send] (mutable
      value constructed directly at a [Net.send]/[Net.broadcast] call).
    - R3 partiality (lib/core and lib/paxos only): [R3-failwith],
      [R3-invalid-arg], [R3-assert-false], [R3-option-get], [R3-list-hd].

    The pass is untyped: aliases, local opens, and shadowing can hide an
    identifier from it. It trades soundness for zero build-time cost and no
    cmi dependencies; the allowlist covers the deliberate escapes. *)

type env
(** Type declarations harvested from all scanned files, keyed by
    ["Module.typename"], used for R2 reachability. *)

type type_entry
(** One harvested type declaration (opaque; see {!type_entries}). *)

val type_entries :
  module_:string -> Parsetree.structure -> (string * type_entry) list
(** Harvest one file's top-level type declarations. Safe to run per-file
    in parallel; entries are order-independent until folded by
    {!env_of_entries}. *)

val env_of_entries : (string * type_entry) list list -> env
(** Fold per-file entry lists into one environment. Later files win on
    (unlikely) module-name collisions; feed files in sorted order for
    determinism. *)

val check : env -> rel:string -> Parsetree.structure -> Finding.t list
(** Run every rule over one file. [rel] is the repo-relative path; it
    selects the R3 / R1-simtime scopes and appears in findings. Findings
    are returned in source order. *)

val norm_rel : string -> string
(** Normalise a repo-relative path: strip a leading ["./"], forward
    slashes. *)

val starts_with : prefix:string -> string -> bool
(** Shared prefix test used by the scope predicates of every rule
    module (OCaml 5.1's [String.starts_with] rebuilt so the linter has no
    stdlib-version sensitivity). *)

val module_name_of_rel : string -> string
(** ["lib/core/messages.ml"] -> ["Messages"]. *)
