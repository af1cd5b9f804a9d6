(** The per-file syntactic rules, as one Parsetree pass.

    - R1 determinism: [R1-random] (any [Random.*]), [R1-wallclock]
      ([Sys.time], [Unix.gettimeofday], [Unix.time]), [R1-hash-iter]
      ([Hashtbl.iter]/[fold]/[to_seq*]/[randomize] and the same through any
      [*.Tbl] functor instance), [R1-simtime] (record fields named [*_at]
      typed bare [float]).
    - R2 cross-node aliasing: [R2-payload] (mutable state syntactically
      reachable from a [type payload += ...] constructor, through the type
      declarations collected from the scanned files), [R2-send] (mutable
      value constructed directly at a [Net.send]/[Net.broadcast] call).
    - R3 partiality: [R3-failwith], [R3-invalid-arg], [R3-assert-false],
      [R3-option-get], [R3-list-hd].
    - R4 ambient state: [R4-ambient] (mutable value bound at module top
      level).
    - R6 runtime purity: no [Unix.*] ([R6-unix]), no effectful [Sys.*]
      ([R6-sys]; pure constants like [Sys.word_size] are exempt), no channel
      or console I/O ([R6-channel]: [open_in], [print_endline], [stdout],
      [In_channel.*], ...), no [Printf.printf]/[Format.eprintf]-style
      console formatting ([R6-print]), and no [exit] ([R6-exit]).  A bare
      name the file binds itself is its own, not Stdlib's.  [R6-runtime]
      bans [Runtime.*], [Outbox.*], [Ctx.*], [Obs.*] and [Event.*] in the
      acceptor.  An identifier rule reads module-qualified constructors
      too.

    The identifier rules of R1, R3 and R6 are one table read by the one
    walk; {!Scope.applies} says where each rule runs.  The pass is untyped:
    aliases, local opens, and shadowing can hide an identifier from it. It
    trades soundness for zero build-time cost and no cmi dependencies; the
    allowlist covers the deliberate escapes. *)

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
(** Run every rule over one file. [rel] is the normalised repo-relative
    path; it selects the scoped rules and appears in findings. *)
