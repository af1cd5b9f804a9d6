let classic_size ~n = (n / 2) + 1

let fast_size ~n =
  let c = classic_size ~n in
  (* Smallest f with 2f + c - 2n >= 1, i.e. f >= (2n - c + 1) / 2. *)
  let num = (2 * n) - c + 1 in
  (num + 1) / 2

let anchor_threshold ~n ~f ~responded = f - (n - responded)

let rec position_from acceptor i = function
  | [] -> -1
  | r :: rest -> if r = acceptor then i else position_from acceptor (i + 1) rest

let position acceptor replicas = position_from acceptor 0 replicas

let fast_impossible ~n ~acks ~rejects =
  let f = fast_size ~n in
  n - rejects < f && n - acks < f

type tally = int

(* The accept count in bits 0-5, the reject count in bits 6-11 and, from
   bit 12 up to the sign bit, the bitmask of the positions counted.  A
   count is at most the number of positions, so neither overflows. *)
module Tally = struct
  let empty = 0
  let acks t = t land 63
  let rejects t = (t lsr 6) land 63
  let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))
  let replies t = popcount (t lsr 12)

  let count t ~pos increment =
    if pos < 0 then t
    else if pos > Sys.int_size - 14 then
      Mdcc_util.Invariant.violate ~context:"Quorum.Tally" "replica position %d out of range" pos
    else if t land (1 lsl (pos + 12)) <> 0 then t
    else (t lor (1 lsl (pos + 12))) + increment

  let vote t ~pos ~ok = count t ~pos (if ok then 1 else 64)
  let reply t ~pos = count t ~pos 0

  let decided t ~quorum =
    if acks t >= quorum then Some true else if rejects t >= quorum then Some false else None

  (* Sized by [fast_size ~n], not by the configured fast quorum that
     learning uses: under a [fast_quorum_override] the coordinator learns
     at the override but detects collisions at the default size.  The
     benchmark's set-up canary and the quick pins' Q = 3 report depend on
     this, so aligning the two waits for a change to the benchmark. *)
  let fast_impossible t ~n = fast_impossible ~n ~acks:(acks t) ~rejects:(rejects t)
end
