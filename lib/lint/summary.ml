(* The per-file summary store.

   Phase 1 of the driver runs [of_structure] on every file, harvesting
   everything the cross-file analyses need: type declarations (R2
   reachability), payload constructor sets and dispatch sites (R7), and
   call-graph edges (R5 spawner propagation).  [link] then folds the
   summaries, in sorted file order, into the one [linked] value phase 2
   threads through every per-file check: phase 1 is a pure function of one
   file, the link is a deterministic fold, and phase 2 is again a pure
   function of (file, linked). *)

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

let of_structure ~rel (str : Parsetree.structure) : file =
  let module_ = Scope.module_name rel in
  {
    f_types = Rules.type_entries ~module_ str;
    f_exhaustive = Exhaustive.summarize ~rel str;
    f_escape = Escape.edges ~rel str;
  }

let link (files : file list) : linked =
  {
    l_env = Rules.env_of_entries (List.map (fun f -> f.f_types) files);
    l_families = Exhaustive.link ~decls:(List.map (fun f -> f.f_exhaustive) files);
    l_spawners = Escape.link ~edges:(List.map (fun f -> f.f_escape) files);
  }
