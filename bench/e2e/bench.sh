#!/usr/bin/env bash
# Builds bench_e2e from this checkout's sources, then runs one workload.
#
# Usage, from the repository root:
#   bash bench/e2e/bench.sh --workload W --seed S [--seconds T] [--trace 0|1]
#
# Every argument goes to bench_e2e unchanged. The build lives in
# ${CARGO_TARGET_DIR:-.bench_build}/e2e (configured once, then rebuilt
# incrementally); corpora, outputs and reports go to its out/ directory.
# Build output goes to build.log there, and its tail to stderr on failure.
set -euo pipefail

if [[ ! -f src/CMakeLists.txt || ! -f bench/e2e/CMakeLists.txt ]]; then
  echo "bench.sh: no source tree here; run it from the repository root" >&2
  exit 1
fi

build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
mkdir -p "$build"
jobs=$(nproc 2>/dev/null || echo 2)
(( jobs > 4 )) && jobs=4

if ! {
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    generator=()
    command -v ninja >/dev/null 2>&1 && generator=(-G Ninja)
    cmake -S bench/e2e -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "$build" --target bench_e2e -j "$jobs"
} >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  echo "bench.sh: build failed (full log: $build/build.log)" >&2
  exit 1
fi

exec "$build/bench_e2e" --out "$build/out" "$@"
