#!/usr/bin/env bash
# Runs every bench_e2e workload at its default settings (40 timed and 5
# traced passes each) and prints every metric with its unit.
#
# Usage:
#   bench/e2e/run.sh <build-dir> [--seed S] [--out DIR]
#
# <build-dir> holds a built bench_e2e (see CMakeLists.txt). Reports go to
# DIR (default <build-dir>/out): BENCH_e2e_<workload>.json per workload,
# plus the corpus, last export and trace.json under DIR/<workload>/.
# Exits 1 if any workload fails or its output differs from the reference.
set -euo pipefail

usage() {
  echo "usage: $0 <build-dir> [--seed S] [--out DIR]" >&2
  exit 2
}

(( $# >= 1 )) || usage
build=$1
shift
seed=1
out="$build/out"
while (( $# )); do
  case $1 in
    --seed) (( $# >= 2 )) || usage; seed=$2; shift 2 ;;
    --out) (( $# >= 2 )) || usage; out=$2; shift 2 ;;
    *) usage ;;
  esac
done

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
status=0
for workload in web_en near_dup ingest_export arxiv_cache; do
  "$build/bench_e2e" --workload "$workload" --seed "$seed" --out "$out" \
    --root "$root" || status=1
done
exit $status
