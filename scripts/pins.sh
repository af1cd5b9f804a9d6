#!/bin/sh
# Byte-identity pins: build once, run every canonical command and print one
# line per output,
#
#   <sha256 of the output>  <exit code>  <label>
#
# A refactor that must keep behaviour compares this output at two trees:
#
#   scripts/pins.sh > new.txt
#   (cd ../parent && scripts/pins.sh) > old.txt
#   diff old.txt new.txt
#
# Exit codes are recorded, not judged: the 300-seed sweep, the planted-bug
# sweeps and the deltas sweep exit 1 on their known violations.  Commands
# that also write a file get a second line for it.  Every command runs in a
# scratch directory with relative output names, so stdout that echoes a
# path is the same in any checkout.  The script itself fails (exit 2) only
# when the build does.
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
dune build bin/chaos_cli.exe bin/experiments_cli.exe >&2 || exit 2
chaos=$root/_build/default/bin/chaos_cli.exe
experiments=$root/_build/default/bin/experiments_cli.exe
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

pin "sweep 300 seeds" obs.json -- "$chaos" sweep --seeds 300 --json --obs-out obs.json
pin "sweep 4 partitions" -- "$chaos" sweep --seeds 40 --partitions 4 --jobs 2 --json
pin "baselines" -- "$chaos" baselines --seeds 20 --txns 30
pin "figures quick" metrics.json -- "$experiments" run --quick --metrics-out metrics.json
pin "demo trace" -- "$experiments" demo --trace
pin "sweep 2 items" obs.json -- \
  "$chaos" sweep --seeds 30 --items 2 --txns 120 --jobs 2 --json --obs-out obs.json
pin "replay latency_surge 106" -- \
  "$chaos" replay --seed 106 --scenario latency_surge --trace
pin "planted bug 3, jobs 1" -- \
  "$chaos" sweep --seeds 30 --json --trace --plant-bug 3 --jobs 1
pin "planted bug 3, jobs 2" -- \
  "$chaos" sweep --seeds 30 --json --trace --plant-bug 3 --jobs 2
pin "deltas demarcation" -- \
  "$chaos" sweep --seeds 200 --items 1 --txns 100 --workload deltas --scenario clean --json
