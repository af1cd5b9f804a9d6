(* CPU time, GC counters and order statistics shared by every workload. *)

(* Process CPU time (user + system, every domain of the process). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* A fixed computation in the set-up's style (hashing, allocation,
   short-lived tables), and its nominal CPU time in seconds.  It is the
   benchmark's own code, so its cost moves only with the machine. *)
let reference () =
  let acc = ref 0 in
  for round = 1 to 10 do
    let t = Hashtbl.create 16 in
    for i = 0 to 3_000 do
      Hashtbl.replace t (i * round) (string_of_int i, [ i; round ])
    done;
    Hashtbl.iter (fun _ (s, l) -> acc := !acc + String.length s + List.length l) t
  done;
  !acc

let reference_s = 0.02

let reference_cpu () =
  let t0 = cpu_s () in
  ignore (Sys.opaque_identity (reference ()));
  cpu_s () -. t0

(* [f ()] and its CPU time at the machine's reference speed: the CPU
   seconds of [f] times [reference_s] over the reference computation's CPU
   seconds just before and after it.  On a shared machine the speed of a
   core can swing by 2x within a second, and a set-up lasts tens of
   milliseconds; the ratio cancels the swing, while a set-up doing x %
   more work still reads x % more. *)
let normalized f =
  let r0 = reference_cpu () in
  let t0 = cpu_s () in
  let x = f () in
  let dt = cpu_s () -. t0 in
  let r1 = reference_cpu () in
  (x, dt *. reference_s /. ((r0 +. r1) /. 2.0))

type gc = { minor_words : float; major_words : float; minor_gcs : int; major_gcs : int }

let gc () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    major_words = s.Gc.major_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
  }

let gc_add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    major_words = a.major_words +. b.major_words;
    minor_gcs = a.minor_gcs + b.minor_gcs;
    major_gcs = a.major_gcs + b.major_gcs;
  }

let gc_zero = { minor_words = 0.0; major_words = 0.0; minor_gcs = 0; major_gcs = 0 }

let peak_heap_mb () =
  let s = Gc.quick_stat () in
  Float.of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* [ratio a b] is [a / b], and 0 when nothing was counted. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let ratio_i a b = ratio (Float.of_int a) (Float.of_int b)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Percentile [p] in [0, 100] with linear interpolation; 0 on no samples. *)
let percentile xs p =
  match xs with [] -> 0.0 | _ -> Mdcc_util.Stats.percentile (sorted xs) p

let median xs = percentile xs 50.0

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] computes
   them (the default "exclusive" method), so spreads printed here match the
   ones a reader recomputes from the JSON. *)
let quartiles xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then (0.0, 0.0, 0.0)
  else if n = 1 then (d.(0), d.(0), d.(0))
  else begin
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. Float.of_int (4 - delta)) +. (d.(j) *. Float.of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)
  end

(* Interquartile distance as a share of the median: 0 when the quartiles
   agree, infinite when they differ around a median of 0. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q3 = q1 then 0.0 else (q3 -. q1) /. Float.abs q2
