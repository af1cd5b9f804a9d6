(* Tests for the fork-join pool map and the parallel-sweep determinism
   contract: a --jobs N sweep must render byte-for-byte what --jobs 1
   renders, reports AND observability export alike. *)

module Pool = Mdcc_util.Pool
module Sweep = Mdcc_chaos.Sweep
module Nemesis = Mdcc_chaos.Nemesis
module Runner = Mdcc_chaos.Runner
module Json = Mdcc_obs.Json
module Obs = Mdcc_obs.Obs
module Prof = Mdcc_obs.Prof

let test_map_in_order () =
  let r = Pool.map_list ~jobs:4 (List.init 100 Fun.id) ~f:(fun i -> i * i) in
  Alcotest.(check int) "length" 100 (List.length r);
  List.iteri (fun i x -> Alcotest.(check int) "slot" (i * i) x) r

let test_map_list_order () =
  let xs = List.init 37 (fun i -> 37 - i) in
  let r = Pool.map_list ~jobs:3 xs ~f:(fun x -> x * 2) in
  Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * 2) xs) r

let test_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Pool.map_list ~jobs:4 [] ~f:(fun x -> x));
  Alcotest.(check (list int)) "single" [ 7 ] (Pool.map_list ~jobs:4 [ 7 ] ~f:(fun x -> x))

let test_jobs1_runs_on_caller () =
  (* jobs = 1 must not spawn domains: every task sees the caller's domain. *)
  let self = Domain.self () in
  let domains = Pool.map_list ~jobs:1 (List.init 8 Fun.id) ~f:(fun _ -> Domain.self ()) in
  List.iter (fun d -> Alcotest.(check bool) "caller domain" true (d = self)) domains

(* Multiple failing tasks: the surfaced exception must be the lowest
   failing index — exactly what a sequential loop raises first. *)
let lowest_failure map =
  try
    ignore
      (map (List.init 200 Fun.id) ~f:(fun i ->
           if i mod 7 = 3 then failwith (string_of_int i) else i));
    None
  with Failure msg -> Some msg

let test_exception_lowest_index () =
  Alcotest.(check (option string)) "lowest failing index" (Some "3")
    (lowest_failure (Pool.map_list ~jobs:4))

(* Every map joins its helpers before it returns, also when an element
   raises.  OCaml 5.1 allows at most 128 live domains, so 200 maps that
   each left a helper behind would fail to spawn long before the end. *)
let test_consecutive_maps_join () =
  for round = 0 to 199 do
    let raises = round mod 10 = 9 in
    match
      Pool.map_list ~jobs:2 [ 0; 1 ] ~f:(fun i ->
          if raises && i = 1 then failwith "planted" else i + round)
    with
    | r ->
      Alcotest.(check bool) (Printf.sprintf "map %d should raise" round) false raises;
      Alcotest.(check (list int)) (Printf.sprintf "map %d" round) [ round; round + 1 ] r
    | exception Failure msg ->
      Alcotest.(check bool) (Printf.sprintf "map %d raised %s" round msg) true raises
  done

let test_default_jobs_floor () =
  Alcotest.(check bool) "at least 1" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Profiled groups: a profiling detail, never a semantics change        *)
(* ------------------------------------------------------------------ *)

(* While profiling, [Prof.map_list] sends [max 1 (n / (jobs * 8))]
   consecutive elements out as one pool task; the lists below are long
   enough to form several groups, most of them larger than one element. *)

let test_map_chunked_order () =
  List.iter
    (fun n ->
      let xs = List.init n Fun.id in
      let r, _ = Prof.with_task (fun () -> Prof.map_list ~jobs:4 xs ~f:(fun i -> i * 3)) in
      Alcotest.(check (list int)) (Printf.sprintf "%d elements same result" n)
        (List.map (fun i -> i * 3) xs) r)
    [ 1; 31; 101; 1000 ]

let test_map_chunked_covers_all () =
  (* Groups that divide the list and groups that leave a shorter tail:
     every element must run exactly once. *)
  List.iter
    (fun count ->
      let hits = Array.init count (fun _ -> Atomic.make 0) in
      ignore
        (Prof.with_task (fun () ->
             Prof.map_list ~jobs:3 (List.init count Fun.id) ~f:(fun i -> Atomic.incr hits.(i))));
      Array.iteri
        (fun i a ->
          Alcotest.(check int) (Printf.sprintf "count %d index %d" count i) 1 (Atomic.get a))
        hits)
    [ 10; 48; 64; 200 ]

let test_chunked_exception_lowest_index () =
  (* Groups must not change which exception surfaces: still the lowest
     failing index, as a sequential loop would raise first. *)
  Alcotest.(check (option string)) "lowest failing index" (Some "3")
    (fst (Prof.with_task (fun () -> lowest_failure (Prof.map_list ~jobs:4))))

let test_unprofiled_one_task_per_element () =
  (* With the profiler off nothing is grouped: one claim per element.
     Element 0 waits until element 1 has started, which only another
     domain's claim can do; had both been claimed together, the wait
     would run out its 10 s bound. *)
  let started = Atomic.make false in
  let deadline = Mdcc_obs.Clock.monotonic_ms () +. 10_000.0 in
  let r =
    Prof.map_list ~jobs:2 [ 0; 1 ] ~f:(fun i ->
        if i = 1 then Atomic.set started true
        else
          while not (Atomic.get started) do
            if Mdcc_obs.Clock.monotonic_ms () > deadline then
              failwith "element 1 never started while element 0 ran";
            Domain.cpu_relax ()
          done;
        i)
  in
  Alcotest.(check (list int)) "results" [ 0; 1 ] r

(* [Pool.chunks] regroups a flattened task list: consecutive groups of
   [n], the last shorter, nothing for an empty list. *)
let test_chunks () =
  let ints = Alcotest.(list (list int)) in
  Alcotest.check ints "groups of 3" [ [ 1; 2; 3 ]; [ 4; 5; 6 ]; [ 7 ] ]
    (Pool.chunks 3 [ 1; 2; 3; 4; 5; 6; 7 ]);
  Alcotest.check ints "n divides the length" [ [ 1; 2 ]; [ 3; 4 ] ] (Pool.chunks 2 [ 1; 2; 3; 4 ]);
  Alcotest.check ints "n past the length" [ [ 1; 2 ] ] (Pool.chunks 5 [ 1; 2 ]);
  Alcotest.check ints "empty" [] (Pool.chunks 4 []);
  Alcotest.check_raises "n 0 violates"
    (Mdcc_util.Invariant.Violation
       { Mdcc_util.Invariant.node = None; context = "Pool.chunks"; message = "n 0 < 1" })
    (fun () -> ignore (Pool.chunks 0 [ 1 ]))

let test_chunk_stats_count_tasks () =
  (* A profiled map counts one pool task per group, and one batch. *)
  List.iter
    (fun (jobs, n) ->
      let size = max 1 (n / (jobs * 8)) in
      let _, snap =
        Prof.with_task (fun () -> Prof.map_list ~jobs (List.init n Fun.id) ~f:Fun.id)
      in
      let label = Printf.sprintf "jobs %d, %d elements" jobs n in
      let groups = (n + size - 1) / size in
      Alcotest.(check int) (label ^ ": pool.tasks") groups
        (List.assoc "pool.tasks" snap.Prof.sn_counters);
      Alcotest.(check int) (label ^ ": one batch") 1
        (List.assoc "pool.batches" snap.Prof.sn_counters))
    [ (1, 33); (2, 33); (2, 100); (4, 100) ]

(* ------------------------------------------------------------------ *)
(* The determinism contract, end to end                                *)
(* ------------------------------------------------------------------ *)

let render reports =
  String.concat "\n" (List.map Runner.report_to_json reports)
  ^ "\n"
  ^ Json.to_string (Sweep.obs_doc reports)

let test_sweep_byte_identity () =
  let scenarios =
    List.filteri (fun i _ -> i < 3) Nemesis.matrix
  in
  let specs = Sweep.specs ~seeds:3 ~scenarios () in
  let seq = render (Sweep.run ~jobs:1 specs) in
  let par = render (Sweep.run ~jobs:4 specs) in
  Alcotest.(check bool) "sweep output byte-identical" true (String.equal seq par);
  Alcotest.(check bool) "output non-trivial" true (String.length seq > 1000)

let test_sweep_trace_capture_identity () =
  (* A planted quorum bug makes every run re-execute with trace capture —
     the DLS trace plumbing must behave identically on worker domains. *)
  let scenarios = List.filteri (fun i _ -> i < 1) Nemesis.matrix in
  let specs = Sweep.specs ~seeds:10 ~fast_quorum_override:3 ~scenarios () in
  let seq = Sweep.run ~jobs:1 specs in
  let par = Sweep.run ~jobs:4 specs in
  Alcotest.(check bool) "violations found" true
    (List.exists (fun r -> not (Runner.ok r)) seq);
  Alcotest.(check bool) "captured traces byte-identical" true
    (String.equal (render seq) (render par))

let test_sweep_jobs_byte_identity () =
  (* jobs (1, 2, 4) must render one byte-identical document. *)
  let scenarios = List.filteri (fun i _ -> i < 2) Nemesis.matrix in
  let specs = Sweep.specs ~seeds:3 ~scenarios () in
  let reference = render (Sweep.run ~jobs:1 specs) in
  List.iter
    (fun jobs ->
      Alcotest.(check bool) (Printf.sprintf "jobs %d" jobs) true
        (String.equal reference (render (Sweep.run ~jobs specs))))
    [ 2; 4 ];
  Alcotest.(check bool) "output non-trivial" true (String.length reference > 1000)

let test_run_profiled_chunked () =
  (* Profiling groups the runs but must not change the reports, and the
     merged profile still counts one sweep.run_one span per run. *)
  let scenarios = List.filteri (fun i _ -> i < 2) Nemesis.matrix in
  let specs = Sweep.specs ~seeds:3 ~scenarios () in
  let reports, snapshot = Sweep.run_profiled ~jobs:2 specs in
  Alcotest.(check bool) "reports unchanged" true
    (String.equal (render (Sweep.run ~jobs:2 specs)) (render reports));
  let run_one_count =
    List.fold_left
      (fun acc p -> if p.Prof.ph_path = "sweep.run_one" then acc + p.Prof.ph_count else acc)
      0 snapshot.Prof.sn_phases
  in
  Alcotest.(check int) "one span per run" (List.length specs) run_one_count

let test_registry_chunked_merge () =
  (* Folding per-chunk merged registries in chunk order must equal folding
     every per-run registry in run order — the associativity that lets the
     sweep merge per chunk instead of per run. *)
  let mk i =
    let o = Obs.create () in
    Obs.incr o ~by:i "txn";
    Obs.incr o ~by:1 (if i mod 2 = 0 then "even" else "odd");
    Obs.set_gauge o "last" i;
    o
  in
  let runs = List.init 10 (fun i -> mk (i + 1)) in
  let flat = Obs.create () in
  List.iter (fun o -> Obs.merge ~into:flat o) runs;
  let chunked = Obs.create () in
  let rec in_chunks = function
    | [] -> ()
    | os ->
      let rec take n = function
        | x :: rest when n > 0 ->
          let taken, left = take (n - 1) rest in
          (x :: taken, left)
        | rest -> ([], rest)
      in
      let group, rest = take 3 os in
      let acc = Obs.create () in
      List.iter (fun o -> Obs.merge ~into:acc o) group;
      Obs.merge ~into:chunked acc;
      in_chunks rest
  in
  in_chunks (List.init 10 (fun i -> mk (i + 1)));
  Alcotest.(check string) "chunked merge equals flat merge"
    (Json.to_string (Obs.metrics_json flat))
    (Json.to_string (Obs.metrics_json chunked))

let test_obs_merge () =
  let a = Obs.create () and b = Obs.create () in
  Obs.incr a ~by:2 "x";
  Obs.incr b ~by:3 "x";
  Obs.incr b ~by:1 "y";
  Obs.set_gauge b "g" 7;
  Obs.merge ~into:a b;
  let doc = Json.to_string (Obs.metrics_json a) in
  let counters = Option.get (Json.member "counters" (Result.get_ok (Json.parse doc))) in
  Alcotest.(check (option int)) "counter x summed" (Some 5)
    (match Json.member "x" counters with Some (Json.Int n) -> Some n | _ -> None);
  Alcotest.(check (option int)) "counter y carried" (Some 1)
    (match Json.member "y" counters with Some (Json.Int n) -> Some n | _ -> None)

let suite =
  [
    Alcotest.test_case "map fills slots in order" `Quick test_map_in_order;
    Alcotest.test_case "map_list preserves order" `Quick test_map_list_order;
    Alcotest.test_case "empty and single batches" `Quick test_empty_and_single;
    Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs1_runs_on_caller;
    Alcotest.test_case "lowest-index exception wins" `Quick test_exception_lowest_index;
    Alcotest.test_case "consecutive maps join their domains" `Quick test_consecutive_maps_join;
    Alcotest.test_case "default_jobs floor" `Quick test_default_jobs_floor;
    Alcotest.test_case "chunked map keeps order" `Quick test_map_chunked_order;
    Alcotest.test_case "chunked map covers every index" `Quick test_map_chunked_covers_all;
    Alcotest.test_case "chunked lowest-index exception wins" `Quick
      test_chunked_exception_lowest_index;
    Alcotest.test_case "unprofiled map claims each element alone" `Quick
      test_unprofiled_one_task_per_element;
    Alcotest.test_case "chunked stats count tasks" `Quick test_chunk_stats_count_tasks;
    Alcotest.test_case "sweep byte-identity jobs 1 vs 4" `Quick test_sweep_byte_identity;
    Alcotest.test_case "sweep byte-identity across jobs" `Quick test_sweep_jobs_byte_identity;
    Alcotest.test_case "profiled sweep chunking" `Quick test_run_profiled_chunked;
    Alcotest.test_case "registry chunked merge associativity" `Quick
      test_registry_chunked_merge;
    Alcotest.test_case "trace capture identity under domains" `Quick
      test_sweep_trace_capture_identity;
    Alcotest.test_case "obs merge" `Quick test_obs_merge;
    Alcotest.test_case "chunks groups a list in order" `Quick test_chunks;
  ]
