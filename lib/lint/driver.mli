(** File discovery, parsing, and report assembly for mdcc_lint.

    The scan is one sequential pass: parse each file, harvest its
    {!Summary.of_structure}, link the summaries ({!Summary.link} over
    sources in sorted-path order), then run the per-file checks (R1–R7)
    and sort the findings with {!Finding.compare}. *)

exception Parse_error of { file : string; message : string }

type source = {
  src_rel : string;  (** repo-relative path, used for scoping and findings *)
  src_path : string;  (** path to read from disk (may differ in tests) *)
}

type report = {
  rp_scanned : int;  (** number of files parsed *)
  rp_findings : Finding.t list;  (** violations, sorted by [Finding.compare] *)
  rp_suppressed : Finding.t list;  (** violations matched by the allowlist *)
}

val scan_sources : ?allow:Allowlist.t -> source list -> report
(** Parse and check the given sources. Raises {!Parse_error} if a file
    does not parse. Tests use this entry point with fixture files mapped to
    pretend repo paths. *)

val scan : ?allow:Allowlist.t -> string list -> report
(** Scan every [.ml] under the given roots, skipping dot-entries and
    [_build], in sorted relative-path order, so the report is
    deterministic. *)

val report_to_json : report -> string
(** One-line JSON document; byte-identical across runs for identical
    inputs. *)

val report_to_sarif : report -> string
(** One-line SARIF 2.1.0 document (see {!Sarif.render}); byte-identical
    across runs. *)
