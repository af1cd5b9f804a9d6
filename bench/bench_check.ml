(* bench_check: compare a fresh bench document against a baseline.

     dune exec bench/bench_check.exe -- BENCH_events.json fresh.json \
       --gate minor_words_per_op:lower --tolerance 0.05
     dune exec bench/bench_check.exe -- BENCH_sweep.json fresh.json --gate speedup:higher --tolerance 0.2
     dune exec bench/bench_check.exe -- BENCH_profile.prev.json BENCH_profile.json

   Prints one line per (section, metric) of either file with both values
   and the change.  Exit 2 on an unreadable or foreign document, exit 3 on
   a gated regression or a missing section or gated metric; with no
   --gate it only reports.  The rules are Envelope.check's. *)

module Envelope = Mdcc_bench.Envelope

open Cmdliner

let gate_conv =
  let parse s =
    let bad = Error (`Msg ("expected METRIC:lower or METRIC:higher, got " ^ s)) in
    match String.rindex_opt s ':' with
    | None -> bad
    | Some i -> (
      let metric = String.sub s 0 i in
      match String.sub s (i + 1) (String.length s - i - 1) with
      | "lower" -> Ok (metric, Envelope.Lower)
      | "higher" -> Ok (metric, Envelope.Higher)
      | _ -> bad)
  in
  let print ppf (metric, better) =
    Format.fprintf ppf "%s:%s" metric
      (match better with Envelope.Lower -> "lower" | Envelope.Higher -> "higher")
  in
  Arg.conv (parse, print)

let baseline_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"BASELINE")
let fresh_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"FRESH")

let gates_arg =
  Arg.(
    value & opt_all gate_conv []
    & info [ "gate" ] ~docv:"METRIC:lower|higher"
        ~doc:"Fail when $(i,METRIC) moves the wrong way by more than the tolerance (repeatable).")

let tolerance_arg =
  Arg.(
    value & opt float 0.05
    & info [ "tolerance" ] ~docv:"FRAC" ~doc:"Allowed relative regression of a gated metric.")

let () =
  let run baseline fresh gates tolerance = Envelope.check ~gates ~tolerance baseline fresh in
  let cmd =
    Cmd.v
      (Cmd.info "bench-check" ~doc:"compare a bench document (mdcc.bench.v2) against a baseline")
      Term.(const run $ baseline_arg $ fresh_arg $ gates_arg $ tolerance_arg)
  in
  exit (Cmd.eval' cmd)
