(* Micro-benchmark of the allocation-pinned paths: the simulation hot
   loop, the socket loop's message path, the storage node's visibility,
   scan, tick and vote paths, the span fold, one fast-path and one classic
   commit, a latency-jitter draw and the wire parser.

     dune exec bench/bench_events.exe -- --out BENCH_events.json

   Each section is one probe of Mdcc_bench.Probe (probe.mli describes
   them), timed in isolation.  Wall-clock throughput (ops/s) is
   machine-dependent and noisy on a shared container; the per-op
   minor-allocation figure (minor_words/op, from Gc.minor_words) is
   deterministic for a given build and is the number the allocation work
   is judged by.  The --out document is an Envelope (bench "events", one
   section per probe); CI gates it with bench_check against
   BENCH_events.json. *)

module Json = Mdcc_obs.Json
module Envelope = Mdcc_bench.Envelope
module Probe = Mdcc_bench.Probe

let bench ~out =
  Printf.printf "bench-events: %d ops per section\n%!" Probe.ops;
  let sections =
    List.map
      (fun (p : Probe.t) ->
        let s = Probe.run p in
        let ops_per_s = Float.of_int p.ops /. s.wall_s in
        Printf.printf "  %-24s %8.3f s  %10.0f ops/s  %7.2f minor words/op\n%!" p.name s.wall_s
          ops_per_s s.minor_words_per_op;
        ( p.name,
          [
            ("ops", Float.of_int p.ops);
            ("wall_s", s.wall_s);
            ("ops_per_s", ops_per_s);
            ("minor_words_per_op", s.minor_words_per_op);
          ] ))
      Probe.all
  in
  Option.iter
    (fun path ->
      Envelope.write path ~bench:"events" ~config:[ ("ops", Json.Int Probe.ops) ] sections;
      Printf.printf "  written: %s\n" path)
    out

open Cmdliner

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the measurement as a bench document (schema mdcc.bench.v2).")

let () =
  let doc =
    "micro-benchmark of the DES hot loop (event queue, dispatch, network send), of the \
     socket loop's message path, of the storage node's visibility, dangling-scan and idle \
     maintenance-tick paths, of a fast vote, of the span fold, of one fast-path and one classic \
     commit, of a latency-jitter draw and of the wire parser's request stream"
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench-events" ~doc)
      Term.(const (fun out -> bench ~out) $ out_arg)
  in
  exit (Cmd.eval cmd)
