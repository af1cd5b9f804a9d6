(** Record values: a small attribute map.

    MDCC is a record manager; a record value is a set of named attributes.
    Integer attributes participate in commutative delta updates (e.g.
    [decrement (stock, 1)]) and in value constraints; strings are opaque. *)

type scalar = Int of int | Str of string

type t
(** Immutable attribute map. *)

val empty : t

val of_list : (string * scalar) list -> t
(** Build from bindings; later bindings win. *)

val to_list : t -> (string * scalar) list
(** Bindings in attribute-name order. *)

val fold : (string -> scalar -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over the bindings in attribute-name order, without building
    {!to_list}. *)

val get : t -> string -> scalar option

val find : t -> string -> scalar
(** [get] without the option box, for per-request reads.  Raises
    [Not_found] when the attribute is absent. *)

val get_int : t -> string -> int
(** Integer attribute, defaulting to 0 when absent (delta updates may touch
    attributes before any absolute write). Raises [Invalid_argument] if the
    attribute holds a string. *)

val set : t -> string -> scalar -> t

val add_delta : t -> string -> int -> t
(** [add_delta v attr d] adds [d] to the integer attribute [attr]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
