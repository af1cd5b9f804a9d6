(** Parsetree plumbing shared by the rule families. *)

val strip : Parsetree.expression -> Parsetree.expression
(** Peel type constraints, coercions and local opens. *)

val idents : Parsetree.expression -> string list list
(** Every identifier [e] mentions, as flattened paths in source order
    (["x"] for [x], ["Mutex"; "lock"] for [Mutex.lock]). *)

val allocation : ?atomic:bool -> ?ref_name:string -> Parsetree.expression -> string option
(** What [e] allocates when it is, at its head, a visibly mutable value:
    an array literal, [ref] (named [ref_name], default ["ref"]),
    [Hashtbl]/[Buffer]/[Queue]/[Stack]/[*.Tbl] [create],
    [Array.make]/[init], [Bytes.create]/[make]/[of_string], and
    [Atomic.make] unless [~atomic:false]. *)

val first_allocation :
  deep:bool -> ?ref_name:string -> Parsetree.expression -> (Location.t * string) option
(** The first {!allocation} (atomics included) reachable from [e] through
    applications, tuples, constructors and records — and, when [deep],
    through [let], sequences, branches, matches and constraints.  It never
    enters a function or [lazy] body. *)

val payload_ctors :
  Parsetree.type_extension -> (Parsetree.extension_constructor * Parsetree.constructor_arguments) list
(** The constructors [te] declares when it extends a type named [payload]
    (a message family, [type Network.payload += ...]); [\[\]] otherwise. *)

val iter_top_bindings : (Parsetree.value_binding -> unit) -> Parsetree.structure -> unit
(** Visit every top-level [let] binding, including those of nested
    structure modules (not functor bodies), in source order. *)
