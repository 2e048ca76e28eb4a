#!/usr/bin/env bash
# Two complete sets of runs of the same commit on the same host, compared
# against the benchmark's own bounds. Exits non-zero when any (end-to-end
# metric, workload) pair of the second set is `worse` than the first, or a
# correctness check fails. Extra arguments go to both sets, e.g.
#   benchmark/check.sh --reps 2 --seed 7
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
run=(cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" --)
"${run[@]}" --out "$here/out/check-a.json" "$@"
"${run[@]}" --out "$here/out/check-b.json" "$@"
"${run[@]}" compare "$here/out/check-a.json" "$here/out/check-b.json"
