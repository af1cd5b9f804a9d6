(* Tests for the work-stealing pool and the parallel-sweep determinism
   contract: a --jobs N sweep must render byte-for-byte what --jobs 1
   renders, reports AND observability export alike. *)

module Pool = Mdcc_util.Pool
module Sweep = Mdcc_chaos.Sweep
module Nemesis = Mdcc_chaos.Nemesis
module Runner = Mdcc_chaos.Runner
module Json = Mdcc_obs.Json
module Obs = Mdcc_obs.Obs

let test_map_in_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let r = Pool.map pool 100 (fun i -> i * i) in
      Alcotest.(check int) "length" 100 (Array.length r);
      Array.iteri (fun i x -> Alcotest.(check int) "slot" (i * i) x) r)

let test_map_list_order () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let xs = List.init 37 (fun i -> 37 - i) in
      let r = Pool.map_list pool xs ~f:(fun x -> x * 2) in
      Alcotest.(check (list int)) "order preserved" (List.map (fun x -> x * 2) xs) r)

let test_empty_and_single () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.(check (list int)) "empty" [] (Pool.map_list pool [] ~f:(fun x -> x));
      Alcotest.(check (list int)) "single" [ 7 ] (Pool.map_list pool [ 7 ] ~f:(fun x -> x)))

let test_jobs1_runs_on_caller () =
  (* jobs = 1 must not spawn domains: every task sees the caller's domain. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let self = Domain.self () in
      let domains = Pool.map pool 8 (fun _ -> Domain.self ()) in
      Array.iter
        (fun d -> Alcotest.(check bool) "caller domain" true (d = self))
        domains)

let test_exception_lowest_index () =
  (* Multiple failing tasks: the surfaced exception must be the lowest
     failing index — exactly what a sequential loop raises first. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map pool 50 (fun i ->
                 if i mod 7 = 3 then failwith (string_of_int i) else i));
          None
        with Failure msg -> Some msg
      in
      Alcotest.(check (option string)) "lowest failing index" (Some "3") raised)

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun pool ->
      for round = 1 to 5 do
        let r = Pool.map pool (10 * round) (fun i -> i + round) in
        Alcotest.(check int) "round length" (10 * round) (Array.length r);
        Alcotest.(check int) "round content" (round + 3) r.(3)
      done)

let test_default_jobs_floor () =
  Alcotest.(check bool) "at least 1" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Chunked claiming: a scheduling knob, never a semantics knob         *)
(* ------------------------------------------------------------------ *)

let test_map_chunked_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let expected = Array.init 101 (fun i -> i * 3) in
      List.iter
        (fun chunk ->
          let r = Pool.map pool ~chunk 101 (fun i -> i * 3) in
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d same result" chunk)
            true (r = expected))
        [ 1; 3; 7; 50; 101; 1000 ])

let test_map_chunked_covers_all () =
  (* Chunk larger than count, chunk not dividing count, chunk = count:
     every index must run exactly once. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      List.iter
        (fun (count, chunk) ->
          let hits = Array.make count (Atomic.make 0) in
          Array.iteri (fun i _ -> hits.(i) <- Atomic.make 0) hits;
          ignore (Pool.map pool ~chunk count (fun i -> Atomic.incr hits.(i)));
          Array.iteri
            (fun i a ->
              Alcotest.(check int)
                (Printf.sprintf "count %d chunk %d index %d" count chunk i)
                1 (Atomic.get a))
            hits)
        [ (10, 3); (10, 10); (3, 10); (64, 16) ])

let test_chunked_exception_lowest_index () =
  (* Coarse chunks must not change which exception surfaces: still the
     lowest failing index, as a sequential loop would raise first. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let raised =
        try
          ignore
            (Pool.map pool ~chunk:8 50 (fun i ->
                 if i mod 7 = 3 then failwith (string_of_int i) else i));
          None
        with Failure msg -> Some msg
      in
      Alcotest.(check (option string)) "lowest failing index" (Some "3") raised)

let test_chunk_invalid () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "chunk 0 violates"
        (Mdcc_util.Invariant.Violation
           {
             Mdcc_util.Invariant.node = None;
             context = "Pool.run_batch";
             message = "chunk 0 < 1";
           })
        (fun () -> ignore (Pool.map pool ~chunk:0 4 (fun i -> i))))

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
  (* Chunked claims must still account every task once in the stats. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let before = Pool.stats pool in
      ignore (Pool.map pool ~chunk:5 33 (fun i -> i));
      let after = Pool.stats pool in
      Alcotest.(check int) "tasks counted" 33 Pool.(after.tasks - before.tasks);
      Alcotest.(check int) "one batch" 1 Pool.(after.batches - before.batches))

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

let test_sweep_chunk_byte_identity () =
  (* The full grid: chunk (explicit fine, explicit coarse, derived default)
     x jobs (1, 2, 4) must render one byte-identical document. *)
  let scenarios = List.filteri (fun i _ -> i < 2) Nemesis.matrix in
  let specs = Sweep.specs ~seeds:3 ~scenarios () in
  let reference = render (Sweep.run ~jobs:1 ~chunk:1 specs) in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          let got = render (Sweep.run ~jobs ?chunk specs) in
          let label =
            Printf.sprintf "jobs %d chunk %s" jobs
              (match chunk with Some c -> string_of_int c | None -> "default")
          in
          Alcotest.(check bool) label true (String.equal reference got))
        [ Some 1; Some 4; None ])
    [ 1; 2; 4 ];
  Alcotest.(check bool) "output non-trivial" true (String.length reference > 1000)

let test_run_profiled_chunked () =
  (* Chunked profiling amortizes Prof.with_task across runs but must not
     change the reports, and the merged profile still counts one
     sweep.run_one span per run. *)
  let scenarios = List.filteri (fun i _ -> i < 2) Nemesis.matrix in
  let specs = Sweep.specs ~seeds:3 ~scenarios () in
  let runs = List.length specs in
  let plain = render (Sweep.run ~jobs:2 specs) in
  List.iter
    (fun chunk ->
      let reports, snapshot = Sweep.run_profiled ~jobs:2 ?chunk specs in
      let label =
        match chunk with Some c -> Printf.sprintf "chunk %d" c | None -> "chunk default"
      in
      Alcotest.(check bool) (label ^ ": reports unchanged") true
        (String.equal plain (render reports));
      let run_one_count =
        List.fold_left
          (fun acc p ->
            if p.Mdcc_obs.Prof.ph_path = "sweep.run_one" then acc + p.Mdcc_obs.Prof.ph_count
            else acc)
          0 snapshot.Mdcc_obs.Prof.sn_phases
      in
      Alcotest.(check int) (label ^ ": one span per run") runs run_one_count)
    [ Some 1; Some 4; None ]

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
    Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse;
    Alcotest.test_case "default_jobs floor" `Quick test_default_jobs_floor;
    Alcotest.test_case "chunked map keeps order" `Quick test_map_chunked_order;
    Alcotest.test_case "chunked map covers every index" `Quick test_map_chunked_covers_all;
    Alcotest.test_case "chunked lowest-index exception wins" `Quick
      test_chunked_exception_lowest_index;
    Alcotest.test_case "chunk < 1 violates" `Quick test_chunk_invalid;
    Alcotest.test_case "chunked stats count tasks" `Quick test_chunk_stats_count_tasks;
    Alcotest.test_case "sweep byte-identity jobs 1 vs 4" `Quick test_sweep_byte_identity;
    Alcotest.test_case "sweep byte-identity across chunk x jobs grid" `Quick
      test_sweep_chunk_byte_identity;
    Alcotest.test_case "profiled sweep chunking" `Quick test_run_profiled_chunked;
    Alcotest.test_case "registry chunked merge associativity" `Quick
      test_registry_chunked_merge;
    Alcotest.test_case "trace capture identity under domains" `Quick
      test_sweep_trace_capture_identity;
    Alcotest.test_case "obs merge" `Quick test_obs_merge;
    Alcotest.test_case "chunks groups a list in order" `Quick test_chunks;
  ]
