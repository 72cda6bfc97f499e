#!/usr/bin/env bash
# Gates one set of bench_e2e reports against another, workload by workload:
# dj_bench_diff with the directions and bounds BENCHMARK.json declares for
# the end-to-end metrics; layer and environment metrics are informational.
#
# Usage:
#   bench/e2e/compare.sh <baseline-dir> <current-dir> [build-dir]
#
# Each directory holds BENCH_e2e_<workload>.json from run.sh. build-dir
# holds bench_e2e and dj_bench_diff (default .bench_build/e2e).
# Exit codes: 0 = no regression, 1 = regression, 2 = the two sets come from
# different host shapes (env.np or env.hardware_threads) or a report is
# missing. A baseline from another host shape would gate nothing.
set -euo pipefail

if (( $# < 2 || $# > 3 )); then
  echo "usage: $0 <baseline-dir> <current-dir> [build-dir]" >&2
  exit 2
fi
baseline=$1
current=$2
build=${3:-.bench_build/e2e}
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)

env_value() {  # env_value FILE KEY
  grep -o "\"$2\": *[0-9.eE+-]*" "$1" | head -n 1 | sed 's/.*: *//'
}

status=0
for workload in web_en near_dup ingest_export arxiv_cache; do
  a="$baseline/BENCH_e2e_$workload.json"
  b="$current/BENCH_e2e_$workload.json"
  for f in "$a" "$b"; do
    if [[ ! -f $f ]]; then
      echo "compare.sh: missing $f" >&2
      exit 2
    fi
  done
  for key in env.np env.hardware_threads; do
    if [[ "$(env_value "$a" "$key")" != "$(env_value "$b" "$key")" ]]; then
      echo "compare.sh: $workload: $key differs ($(env_value "$a" "$key")" \
        "vs $(env_value "$b" "$key")); refusing to compare" >&2
      exit 2
    fi
  done
  echo "== $workload"
  read -r -a flags <<<"$("$build/bench_e2e" --gate-flags "$workload" \
    --root "$root")"
  rc=0
  "$build/dj_bench_diff" "${flags[@]}" "$a" "$b" || rc=$?
  if (( rc == 2 )); then exit 2; fi
  if (( rc != 0 )); then status=1; fi
done
exit $status
