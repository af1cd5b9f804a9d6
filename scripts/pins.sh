#!/bin/sh
# Byte-identity pins: run one tier's canonical commands and print one line
# per output,
#
#   <sha256 of the output>  <exit code>  <label>
#
# Usage: scripts/pins.sh quick|full CHAOS_CLI EXPERIMENTS_CLI
#
# test/pins/dune runs it with the built executables and diffs the result
# with the checked-in test/pins/<tier>.pins: `dune runtest` checks the
# quick tier (under a second), `dune build @pins` the full one (about a
# minute on 2 cores), and `dune promote` rewrites either file after an
# intended change.
#
# Exit codes are recorded, not judged: the violating replays and sweeps
# exit 1.  Commands that also write a file get a second line for it.
# Every command runs in a scratch directory with relative output names, so
# stdout that echoes a path is the same in any checkout.  The script
# itself fails (exit 2) only on bad arguments.
set -u
usage() {
  echo "usage: $0 quick|full CHAOS_CLI EXPERIMENTS_CLI" >&2
  exit 2
}
[ $# -eq 3 ] && [ -x "$2" ] && [ -x "$3" ] || usage
tier=$1
chaos=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
experiments=$(cd "$(dirname "$3")" && pwd)/$(basename "$3")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

digest() { sha256sum < "$1" | cut -d' ' -f1; }

# pin LABEL [FILE] -- COMMAND...: run COMMAND in the scratch directory and
# print the digest of its stdout and, if named, of FILE it wrote.
pin() {
  label=$1
  shift
  file=
  if [ "$1" != -- ]; then
    file=$1
    shift
  fi
  shift
  rm -f "$tmp"/*
  (cd "$tmp" && "$@" > stdout 2> /dev/null)
  code=$?
  printf '%s  %s  %s\n' "$(digest "$tmp/stdout")" "$code" "$label"
  if [ -n "$file" ]; then
    if [ -f "$tmp/$file" ]; then
      printf '%s  %s  %s (%s)\n' "$(digest "$tmp/$file")" "$code" "$label" "$file"
    else
      printf 'missing  %s  %s (%s)\n' "$code" "$label" "$file"
    fi
  fi
}

case $tier in
quick)
  # Four clean runs, each replay printing its verbose report (event
  # count, metrics and spans) and its trace, then one sweep over the same
  # runs for the obs document.
  for scenario in torn_broadcast master_failover; do
    for seed in 1 2; do
      pin "replay $scenario $seed, trace" -- \
        "$chaos" replay --scenario $scenario --seed $seed --trace
    done
  done
  pin "sweep of those 4 runs" obs.json -- \
    "$chaos" sweep --seeds 2 --scenario torn_broadcast,master_failover --trace --obs-out obs.json
  # Two runs that lost an update until acceptors kept their Phase 1
  # promises (the promise fix): both must stay clean.
  pin "report latency_surge 119 (lost update, fixed)" -- \
    "$chaos" replay --seed 119 --scenario latency_surge
  pin "report random 61 (lost update, fixed)" -- "$chaos" replay --seed 61 --scenario random
  # The checker's verdict on one run of every class known to violate.
  # Fixing the re-decided option, the recovery duels behind the liveness
  # case and the demarcation breach under faults moves these.
  pin "report drop_spike 2465 (option agreement)" -- "$chaos" replay --seed 2465 --scenario drop_spike
  pin "report random 1190 (liveness)" -- "$chaos" replay --seed 1190 --scenario random
  pin "report clean 4, plant-bug 3" -- \
    "$chaos" replay --seed 4 --scenario clean --plant-bug 3
  pin "report deltas, 2 items, 120 txns, drop_spike 2 (demarcation)" -- \
    "$chaos" replay --seed 2 --scenario drop_spike --workload deltas --items 2 --txns 120
  pin "demo trace" -- "$experiments" demo --trace
  ;;
full)
  pin "sweep 300 seeds" obs.json -- "$chaos" sweep --seeds 300 --json --obs-out obs.json
  pin "sweep 4 partitions" -- "$chaos" sweep --seeds 40 --partitions 4 --jobs 2 --json
  pin "baselines" -- "$chaos" baselines --seeds 20 --txns 30
  pin "figures quick" metrics.json -- "$experiments" run --quick --metrics-out metrics.json
  pin "demo trace" -- "$experiments" demo --trace
  pin "sweep 2 items" obs.json -- \
    "$chaos" sweep --seeds 30 --items 2 --txns 120 --jobs 2 --json --obs-out obs.json
  pin "replay drop_spike 2465" -- \
    "$chaos" replay --seed 2465 --scenario drop_spike --trace
  pin "planted bug 3, jobs 1" -- \
    "$chaos" sweep --seeds 30 --json --trace --plant-bug 3 --jobs 1
  pin "planted bug 3, jobs 2" -- \
    "$chaos" sweep --seeds 30 --json --trace --plant-bug 3 --jobs 2
  pin "deltas demarcation" -- \
    "$chaos" sweep --seeds 200 --items 1 --txns 100 --workload deltas --scenario clean --json
  pin "deltas demarcation, 2 items" -- \
    "$chaos" sweep --seeds 30 --items 2 --txns 120 --workload deltas --jobs 2 --json
  pin "repair sweep" -- \
    "$chaos" sweep --seeds 50 --scenario torn_broadcast,torn_broadcast_crash,partition_heal \
    --jobs 2 --json
  pin "shard sweep" -- \
    "$chaos" sweep --seeds 50 --scenario shard_partition,shard_outage,shard_flap --jobs 2 --json
  # The option-agreement seeds of the re-decided option, and the liveness
  # seeds of the recovery duels.
  pin "random sweep 2000 seeds" -- "$chaos" sweep --seeds 2000 --scenario random --jobs 2
  ;;
*) usage ;;
esac
