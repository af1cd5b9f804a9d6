let classic_size ~n = (n / 2) + 1

let fast_size ~n =
  let c = classic_size ~n in
  (* Smallest f with 2f + c - 2n >= 1, i.e. f >= (2n - c + 1) / 2. *)
  let num = (2 * n) - c + 1 in
  (num + 1) / 2

let anchor_threshold ~n ~f ~responded = f - (n - responded)

let fast_impossible ~n ~acks ~rejects =
  let f = fast_size ~n in
  n - rejects < f && n - acks < f
