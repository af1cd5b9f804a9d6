(* R2-send reaches every allocation R4 knows: tables built by a [Tbl]
   functor instance, [Array.make]/[init] and atomics are mutable too. *)

let send_table net dst = Net.send net dst (Key.Tbl.create 8)

let send_array net dst = Network.broadcast net (Array.make dst 0)

let send_atomic rt dst = Runtime.send rt dst (Some (Atomic.make 0))

(* Fine: the payload is built from immutable values. *)
let send_list net dst = Net.send net dst [ 1; 2; 3 ]
