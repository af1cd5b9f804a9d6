(** Per-file analysis summaries and the cross-file link phase.

    Phase 1 (parallelisable): {!of_structure} harvests one file's type
    declarations (R2), payload constructor sets + dispatch sites (R7), and
    call-graph edges (R5).  Link (sequential): {!link} folds every file's
    summary, in sorted file order, into the {!linked} environment phase 2
    threads through the per-file checks.  Both halves are pure, which is
    what pins --jobs N output byte-identical to --jobs 1. *)

type file = {
  f_types : (string * Rules.type_entry) list;
  f_exhaustive : Exhaustive.summary;
  f_escape : Escape.summary;
}

type linked = {
  l_env : Rules.env;
  l_families : Exhaustive.families;
  l_spawners : Escape.spawners;
}

val of_structure : rel:string -> Parsetree.structure -> file

val link : file list -> linked
