(** One lint finding, with a stable total order so reports are
    deterministic byte-for-byte. *)

type t = {
  rule : string;  (** rule id, ["<family>-<check>"], e.g. ["R1-hash-iter"] *)
  file : string;  (** repo-relative path *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as compilers print *)
  ident : string;  (** the offending identifier / constructor *)
  message : string;
}

val at : file:string -> loc:Location.t -> rule:string -> ident:string -> string -> t
(** The finding for [rule] at the start of [loc]: every rule family builds
    its findings through this one constructor. *)

val family : string -> string
(** ["R1-hash-iter"] -> ["R1"]. *)

val compare : t -> t -> int
(** Order by (file, line, col, rule, ident). *)

val to_string : t -> string
(** [file:line:col: [rule] message (ident)] — the human-readable line. *)

val to_json : t -> Mdcc_obs.Json.t
