(** Record keys: a table name plus a primary key string. *)

type t = { table : string; id : string }

val make : table:string -> id:string -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** ["table/id"], for traces and option logs. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t

module Tbl : sig
  include Hashtbl.S with type key = t

  val sorted_bindings : 'a t -> (key * 'a) list
  (** All bindings in {!compare} order of the keys — the deterministic
      replacement for [iter]/[fold] (see `mdcc_lint` rule R1). *)

  val sorted_iter : (key -> 'a -> unit) -> 'a t -> unit

  val sorted_filter_map : (key -> 'a -> 'b option) -> 'a t -> 'b list
  (** [sorted_filter_map f t] is [List.filter_map] of [f] over
      {!sorted_bindings}, but only the bindings [f] keeps are collected and
      sorted.  [f] must not mutate [t]. *)

  exception Found

  val any : (key -> 'a -> unit) -> 'a t -> bool
  (** [any f t] applies [f] to the bindings, in hash order, until one
      raises {!Found}, and says whether one did.  Only the yes/no answer
      is observable, so hash order is harmless here, unlike the walks
      rule R1 sends through the sorted helpers.  [f] must not mutate [t];
      built once and reused, it leaves [Hashtbl.iter]'s own closure as
      the walk's only allocation. *)
end
