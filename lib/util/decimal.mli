(** Decimal renderings of ints without the format interpreter.  Each
    string equals what [Printf.sprintf] makes of the same int, in one
    allocation: transaction ids are built once per transaction on the
    simulator's and the wire server's hot paths. *)

val width : int -> int
(** The length of [string_of_int n], sign included. *)

val blit : int -> bytes -> last:int -> unit
(** [blit n b ~last] writes [string_of_int n] into [b] so that its last
    character lands at index [last]. *)

val append : string -> int -> string
(** [append s n] is [Printf.sprintf "%s%d" s n]. *)

val append2 : string -> int -> string -> int -> string
(** [append2 s a s' b] is [Printf.sprintf "%s%d%s%d" s a s' b]. *)
