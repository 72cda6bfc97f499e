#!/usr/bin/env bash
# One-shot hygiene gate. Stages, in order:
#   1. configure + build      ASan+UBSan, -Werror
#   2. ctest                  full suite, lock-order inversions fatal
#   3. ctest (scalar)         re-run with DJ_FORCE_SCALAR=1 so the SWAR/SIMD
#                             kernels' scalar twins carry the whole suite
#   4. recipe lint            dj_lint --Werror over every shipped and
#                             benchmark recipe, plus plan-explain over every
#                             shipped recipe (must exit 0)
#   5. source lint            dj_srclint --Werror over the tree, a manifest
#                             regeneration determinism check (regenerate to a
#                             temp file, must be byte-identical to the
#                             committed srclint/manifest.json), and a
#                             must-fail self-test against the seeded
#                             violations in tests/fixtures/srclint_bad/
#   6. thread-safety build    clang -Wthread-safety of the DJ_GUARDED_BY
#                             annotations (skipped when clang++ is absent)
#   7. static analysis        clang-tidy / cppcheck (skipped when absent)
#   8. observability smoke    trace + metrics round-trip — dj_trace_check
#                             validates every span/instant/metric name
#                             against srclint/manifest.json — plus runs
#                             failed at load and at export that must still
#                             write both files and pass dj_trace_check, the
#                             binary-container round-trip, the fault-matrix
#                             crash/resume smoke, cached and checkpointed
#                             reruns of a rewritten input that must export
#                             as a run with no store, a profiled run
#                             (--require-profile), an injected-stall
#                             watchdog dump listing exactly the np-4
#                             pool's 4 workers, dj_analyze's --bins range
#                             check, 100,000-deep JSONL and recipe inputs
#                             that must fail naming the nesting bound
#                             (dj_process at np 1 and 4, dj_lint), and the
#                             dj_bench_diff
#                             perf-regression gate incl. its must-fail
#                             self-test and malformed --tolerance/--tol/
#                             --degrade values that must exit 2
#   9. Release build          the main tree (src, tools, tests, bench,
#                             examples) as Release, the tier-1 build type,
#                             with -Werror: warnings GCC raises only at -O3
#                             (-Wrestrict, -Wmaybe-uninitialized), which the
#                             Debug build cannot see; then the Fig. 10
#                             scalability bench, which exits 1 when a
#                             backend's rows differ from the single-node run
#  10. benchmark smoke        bench/e2e built as its own Release project
#                             with -Werror; its bench_e2e_smoke ctest runs
#                             every workload at 2% scale and cmp's each
#                             export against dj_process (catches API breaks
#                             the benchmark compiles against)
#  11. TSan                   concurrency-heavy tests (incl. the pool's own
#                             ThreadPool* cases in common_test,
#                             plan_diff_test and property_test's executor
#                             invariants, whose np-4 cases run filter
#                             stages across workers, and ops_dedup_test,
#                             whose dedups bucket and rewrite rows on a
#                             4-worker pool), then re-run under three seeds
#                             of schedule perturbation (DJ_SCHED)
# Run from anywhere inside the repo.
#
# Usage: tools/check.sh [build-dir]   (default: build-check)

set -euo pipefail

repo_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_dir}/build-check}"

echo "== configure (ASan+UBSan, -Werror) =="
cmake -B "${build_dir}" -S "${repo_dir}" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DDJ_SANITIZE=address,undefined \
  -DDJ_WERROR=ON \
  -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

echo "== build =="
cmake --build "${build_dir}" -j

echo "== test (lock-order inversions fatal) =="
DJ_LOCK_ORDER=fatal ctest --test-dir "${build_dir}" --output-on-failure -j4

echo "== test again with kernels pinned scalar (DJ_FORCE_SCALAR=1) =="
# The whole suite must pass with the SWAR/SIMD data-plane kernels disabled:
# the scalar twins are the reference semantics, and every path that
# dispatches into the kernel library has to be byte-identical either way
# (tests/swar_test.cc checks the kernels differentially; this pass checks
# everything built on top of them).
DJ_FORCE_SCALAR=1 DJ_LOCK_ORDER=fatal \
  ctest --test-dir "${build_dir}" --output-on-failure -j4

echo "== lint shipped and benchmark recipes (--Werror) =="
"${build_dir}/tools/dj_lint" --Werror "${repo_dir}"/configs/recipes/*.yaml \
  "${repo_dir}"/bench/e2e/recipes/*.yaml

echo "== explain shipped plans =="
"${build_dir}/tools/dj_lint" --explain-plan \
  "${repo_dir}"/configs/recipes/*.yaml > /dev/null

echo "== source lint (dj_srclint --Werror) =="
"${build_dir}/tools/dj_srclint" --root "${repo_dir}" --Werror

echo "== srclint manifest regeneration is deterministic and committed =="
srclint_tmp="$(mktemp)"
"${build_dir}/tools/dj_srclint" --root "${repo_dir}" \
  --manifest "${srclint_tmp}" --update-manifest
if ! cmp -s "${srclint_tmp}" "${repo_dir}/srclint/manifest.json"; then
  diff -u "${repo_dir}/srclint/manifest.json" "${srclint_tmp}" >&2 || true
  rm -f "${srclint_tmp}"
  echo "check.sh: srclint/manifest.json is stale; run" \
       "dj_srclint --update-manifest and commit the result" >&2
  exit 1
fi
rm -f "${srclint_tmp}"

echo "== srclint must-fail self-test (seeded violations) =="
srclint_bad_rc=0
"${build_dir}/tools/dj_srclint" \
  --root "${repo_dir}/tests/fixtures/srclint_bad" --Werror \
  > /dev/null || srclint_bad_rc=$?
if [ "${srclint_bad_rc}" -ne 1 ]; then
  echo "check.sh: dj_srclint expected exit 1 on the seeded fixture," \
       "got ${srclint_bad_rc}" >&2
  exit 1
fi

echo "== thread-safety analysis (clang -Wthread-safety, if installed) =="
if command -v clang++ >/dev/null 2>&1; then
  tsa_dir="${build_dir}-tsa"
  cmake -B "${tsa_dir}" -S "${repo_dir}" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DDJ_THREAD_SAFETY=ON \
    -DDJ_WERROR=ON
  cmake --build "${tsa_dir}" -j
else
  echo "clang++ not installed; skipping DJ_THREAD_SAFETY build" \
       "(annotations compile as no-ops under this compiler)"
fi

echo "== static analysis (clang-tidy / cppcheck, if installed) =="
if command -v clang-tidy >/dev/null 2>&1; then
  git -C "${repo_dir}" ls-files 'src/*.cc' 'tools/*.cc' | while read -r f; do
    clang-tidy -p "${build_dir}" --quiet "${repo_dir}/${f}"
  done
else
  echo "clang-tidy not installed; skipping (config: .clang-tidy)"
fi
if command -v cppcheck >/dev/null 2>&1; then
  cppcheck --project="${build_dir}/compile_commands.json" \
    --enable=warning,performance --inline-suppr \
    --suppress='*:*/third_party/*' --error-exitcode=1 --quiet
else
  echo "cppcheck not installed; skipping"
fi

echo "== trace smoke-gate =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
for i in $(seq 1 40); do
  printf '{"text": "Smoke doc %d: the quick brown fox jumps over the lazy dog %d times in a row."}\n' \
    "$i" "$((i % 5))"
done > "${smoke_dir}/in.jsonl"
"${build_dir}/tools/dj_process" \
  --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
  --input "${smoke_dir}/in.jsonl" \
  --output "${smoke_dir}/out.jsonl" \
  --trace-out "${smoke_dir}/trace.json" \
  --metrics-out "${smoke_dir}/metrics.json"
"${build_dir}/tools/dj_trace_check" --require-io-spans \
  --manifest "${repo_dir}/srclint/manifest.json" \
  "${smoke_dir}/trace.json" "${smoke_dir}/metrics.json"

echo "== failed runs still write trace and metrics =="
# A failure after the observability sinks start must not lose the files.
# io.read.fail=n1 fails the dataset load (--faults restarts the counts after
# the recipe read); io.write.fail=always fails only the export (the trace
# and metrics go through the unprobed WriteStringToFile). Both runs must
# exit 1, and both runs' files must pass dj_trace_check. A run that fails at
# load has no span and no unit row; dj_trace_check accepts that only because
# its metrics.json records the failure as run.error.
failed_run() {  # failed_run SPEC NAME
  local rc=0
  "${build_dir}/tools/dj_process" \
    --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
    --input "${smoke_dir}/in.jsonl" \
    --output "${smoke_dir}/$2_out.jsonl" \
    --faults "$1" \
    --trace-out "${smoke_dir}/$2_trace.json" \
    --metrics-out "${smoke_dir}/$2_metrics.json" > /dev/null 2>&1 || rc=$?
  if [ "${rc}" -ne 1 ]; then
    echo "check.sh: the $1 run was expected to exit 1, got ${rc}" >&2
    exit 1
  fi
}
failed_run io.write.fail=always export_fault
"${build_dir}/tools/dj_trace_check" --require-fault-instants \
  --manifest "${repo_dir}/srclint/manifest.json" \
  "${smoke_dir}/export_fault_trace.json" \
  "${smoke_dir}/export_fault_metrics.json"
failed_run io.read.fail=n1 load_fault
"${build_dir}/tools/dj_trace_check" --require-fault-instants \
  --manifest "${repo_dir}/srclint/manifest.json" \
  "${smoke_dir}/load_fault_trace.json" \
  "${smoke_dir}/load_fault_metrics.json"

echo "== binary container round-trip (.djds.djlz at --np 4) =="
# Same recipe, same input, but exported through the compressed binary
# container; a passthrough recipe then imports it back to JSONL. The result
# must be byte-identical to the plain JSONL export above — this exercises
# the sharded DJDS v3 codec and block-parallel djlz end to end with a
# 4-worker pool.
"${build_dir}/tools/dj_process" \
  --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
  --input "${smoke_dir}/in.jsonl" \
  --output "${smoke_dir}/out.djds.djlz" \
  --np 4
cat > "${smoke_dir}/passthrough.yaml" <<'EOF'
project_name: smoke_roundtrip
np: 4
EOF
"${build_dir}/tools/dj_process" \
  --recipe "${smoke_dir}/passthrough.yaml" \
  --input "${smoke_dir}/out.djds.djlz" \
  --output "${smoke_dir}/roundtrip.jsonl" \
  --no-verify
cmp "${smoke_dir}/out.jsonl" "${smoke_dir}/roundtrip.jsonl"
echo "round-trip byte-identical"

echo "== fault-matrix smoke (crash at an OP boundary, resume, compare) =="
# Three seeds: each run is killed at the second OP boundary via the
# DJ_FAULTS env var, must leave an inspectable trace with a fault instant,
# and the same command run again resumes from the stored prefix and must
# produce output byte-identical to the uninterrupted export from the trace
# smoke-gate above.
for seed in 1 2 3; do
  ckpt_dir="${smoke_dir}/ckpt_seed${seed}"
  if DJ_FAULTS="seed=${seed};exec.op_abort=n2" "${build_dir}/tools/dj_process" \
    --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
    --input "${smoke_dir}/in.jsonl" \
    --output "${smoke_dir}/fault_seed${seed}.jsonl" \
    --checkpoint-dir "${ckpt_dir}" \
    --trace-out "${smoke_dir}/fault_trace${seed}.json" \
    --metrics-out "${smoke_dir}/fault_metrics${seed}.json"; then
    echo "check.sh: seed ${seed} fault run was expected to crash" >&2
    exit 1
  fi
  "${build_dir}/tools/dj_trace_check" --require-fault-instants \
    "${smoke_dir}/fault_trace${seed}.json" "${smoke_dir}/fault_metrics${seed}.json"
  "${build_dir}/tools/dj_process" \
    --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
    --input "${smoke_dir}/in.jsonl" \
    --output "${smoke_dir}/fault_seed${seed}.jsonl" \
    --checkpoint-dir "${ckpt_dir}"
  cmp "${smoke_dir}/out.jsonl" "${smoke_dir}/fault_seed${seed}.jsonl"
  # A checkpoint is the newest stored boundary: one entry, nothing else.
  ckpt_files="$(ls -A "${ckpt_dir}")"
  if [[ ! "${ckpt_files}" =~ ^checkpoint-[0-9a-f]{16}\.djds$ ]]; then
    echo "check.sh: seed ${seed}: ${ckpt_dir} holds '${ckpt_files}'," \
      "not exactly one checkpoint-*.djds" >&2
    exit 1
  fi
done
# The same three seeds with the cache on: the cache stores every boundary,
# so nothing is written to the checkpoint directory.
for seed in 1 2 3; do
  ckpt_dir="${smoke_dir}/ckpt_cache_seed${seed}"
  cache_dir="${smoke_dir}/cache_seed${seed}"
  if DJ_FAULTS="seed=${seed};exec.op_abort=n2" "${build_dir}/tools/dj_process" \
    --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
    --input "${smoke_dir}/in.jsonl" \
    --output "${smoke_dir}/fault_cache_seed${seed}.jsonl" \
    --cache-dir "${cache_dir}" \
    --checkpoint-dir "${ckpt_dir}"; then
    echo "check.sh: seed ${seed} cached fault run was expected to crash" >&2
    exit 1
  fi
  "${build_dir}/tools/dj_process" \
    --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
    --input "${smoke_dir}/in.jsonl" \
    --output "${smoke_dir}/fault_cache_seed${seed}.jsonl" \
    --cache-dir "${cache_dir}" \
    --checkpoint-dir "${ckpt_dir}"
  cmp "${smoke_dir}/out.jsonl" "${smoke_dir}/fault_cache_seed${seed}.jsonl"
  ckpt_files="$(ls -A "${ckpt_dir}" 2> /dev/null || true)"
  if [[ -n "${ckpt_files}" ]]; then
    echo "check.sh: seed ${seed}: with the cache on, ${ckpt_dir} holds" \
      "'${ckpt_files}', not nothing" >&2
    exit 1
  fi
done
echo "crash+resume byte-identical for all seeds, cache off and on"

echo "== stale input (a rewritten input reuses no stored boundary) =="
# Stored boundaries are keyed by the input's content, so a run over an input
# rewritten in place finds none of the entries an earlier run left: (a) a
# cached run, then the same command after the rewrite; (b) a checkpointed
# run killed at the second boundary, then the same command after the
# rewrite, with checkpoints on through --checkpoint-dir and through the
# recipe's use_checkpoint/checkpoint_dir keys. Every rerun must export what
# the rewritten input exports with no store, which differs from the first
# input's export.
stale_dir="${smoke_dir}/stale"
mkdir -p "${stale_dir}"
stale_input() {  # stale_input WORD ROWS: rewrites in.jsonl in place
  for i in $(seq 1 "$2"); do
    printf '{"text": "%s doc %d: the reader of %s keeps %d notes on the long river road."}\n' \
      "$1" "$i" "$1" "$((i % 4))"
  done > "${stale_dir}/in.jsonl"
}
stale_run() {  # stale_run RECIPE OUT [dj_process flags...]
  local recipe="$1" out="$2"
  shift 2
  "${build_dir}/tools/dj_process" --recipe "${recipe}" \
    --input "${stale_dir}/in.jsonl" --output "${stale_dir}/${out}" "$@" \
    > /dev/null
}
stale_check() {  # stale_check OUT
  cmp "${stale_dir}/want.jsonl" "${stale_dir}/$1"
  if cmp -s "${stale_dir}/first.jsonl" "${stale_dir}/$1"; then
    echo "check.sh: $1 is the first input's export" >&2
    exit 1
  fi
}
dedup_recipe="${repo_dir}/configs/recipes/minimal_dedup.yaml"
stale_input first 30
stale_run "${dedup_recipe}" first.jsonl
stale_input rewritten 36
stale_run "${dedup_recipe}" want.jsonl
stale_input first 30
stale_run "${dedup_recipe}" cached_first.jsonl --cache-dir "${stale_dir}/cache"
stale_input rewritten 36
stale_run "${dedup_recipe}" cached.jsonl --cache-dir "${stale_dir}/cache"
stale_check cached.jsonl
{
  printf 'use_checkpoint: true\ncheckpoint_dir: %s\n' "${stale_dir}/ckpt_recipe"
  cat "${dedup_recipe}"
} > "${stale_dir}/checkpointed.yaml"
for via in flag recipe; do
  if [[ "${via}" == flag ]]; then
    run=("${dedup_recipe}" "resumed_${via}.jsonl"
      --checkpoint-dir "${stale_dir}/ckpt_flag")
  else
    run=("${stale_dir}/checkpointed.yaml" "resumed_${via}.jsonl")
  fi
  stale_input first 30
  if DJ_FAULTS="exec.op_abort=n2" stale_run "${run[@]}" 2> /dev/null; then
    echo "check.sh: the ${via}-checkpointed run was expected to crash" >&2
    exit 1
  fi
  stale_input rewritten 36
  stale_run "${run[@]}"
  stale_check "resumed_${via}.jsonl"
done
echo "rewritten input exports as a run with no store, cache and checkpoints"

echo "== profiled smoke (sampling profiler + watchdog alive) =="
# The fig8 pretrain-books recipe over a bigger corpus (the 40-doc one
# finishes inside one 2 ms sampling interval), the profiler writing
# collapsed stacks and a (quiet) watchdog attached: the profile must be
# non-empty and the trace must be self-describing about both
# (profile:tick + watchdog:beat instants, a "profile" object in
# metrics.json). Synthetic prose does not survive the recipe's quality
# filters (its duplicate-ngram ratio is inherently high) — irrelevant
# here: the assertions are about the profiling artifacts, not the output.
nouns=(river mountain harvest lantern voyage quiet marble signal autumn copper meadow spiral)
verbs=(describes follows examines recalls measures traces)
for i in $(seq 1 600); do
  body=""
  for j in $(seq 1 12); do
    body="${body}The ${nouns[$(((i * 7 + j * 3) % 12))]} ${verbs[$(((i + j) % 6))]} the ${nouns[$(((i * 5 + j) % 12))]} beyond the ${nouns[$(((j * 11 + i) % 12))]} while the reader counts to $(((i * j) % 97)) and notes what chapter ${j} of book ${i} still owes its plot. "
  done
  printf '{"text": "%s"}\n' "${body}"
done > "${smoke_dir}/profile_in.jsonl"
"${build_dir}/tools/dj_process" \
  --recipe "${repo_dir}/configs/recipes/pretrain_books.yaml" \
  --input "${smoke_dir}/profile_in.jsonl" \
  --output "${smoke_dir}/profiled_out.jsonl" \
  --trace-out "${smoke_dir}/profiled_trace.json" \
  --metrics-out "${smoke_dir}/profiled_metrics.json" \
  --profile-out "${smoke_dir}/profile.folded" \
  --watchdog "stall=30"
test -s "${smoke_dir}/profile.folded"
"${build_dir}/tools/dj_trace_check" --require-profile \
  "${smoke_dir}/profiled_trace.json" "${smoke_dir}/profiled_metrics.json"

echo "== watchdog stall smoke (injected stall must be dumped) =="
# An exec.stall fail point makes the executor sleep busy-without-beating
# past a tight threshold; the run must survive AND the stall dump must
# reach stderr.
"${build_dir}/tools/dj_process" \
  --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
  --input "${smoke_dir}/in.jsonl" \
  --output "${smoke_dir}/stalled_out.jsonl" \
  --faults "exec.stall=n1" \
  --watchdog "stall=0.1" \
  2> "${smoke_dir}/watchdog_stderr.txt"
if ! grep -q "=== WATCHDOG" "${smoke_dir}/watchdog_stderr.txt"; then
  cat "${smoke_dir}/watchdog_stderr.txt" >&2
  echo "check.sh: injected stall did not produce a watchdog dump" >&2
  exit 1
fi
# The recipe runs at np 4, and import, OPs and export share one pool: the
# dump lists exactly 4 pool workers.
pool_workers="$(grep -c "role=threadpool.worker" \
  "${smoke_dir}/watchdog_stderr.txt" || true)"
if [ "${pool_workers}" -ne 4 ]; then
  cat "${smoke_dir}/watchdog_stderr.txt" >&2
  echo "check.sh: stall dump lists ${pool_workers} pool workers, want 4" >&2
  exit 1
fi
cmp "${smoke_dir}/out.jsonl" "${smoke_dir}/stalled_out.jsonl"

echo "== dj_analyze --bins range =="
# --bins takes an integer in [1, 1000]; anything else is a usage error
# (exit 2), never a giant or empty histogram.
head -n 2 "${smoke_dir}/in.jsonl" > "${smoke_dir}/two.jsonl"
for bins in -1 0 x 1001; do
  bins_rc=0
  "${build_dir}/tools/dj_analyze" --input "${smoke_dir}/two.jsonl" \
    --bins "${bins}" > /dev/null 2>&1 || bins_rc=$?
  if [ "${bins_rc}" -ne 2 ]; then
    echo "check.sh: dj_analyze --bins ${bins} expected exit 2," \
         "got ${bins_rc}" >&2
    exit 1
  fi
done
"${build_dir}/tools/dj_analyze" --input "${smoke_dir}/two.jsonl" \
  --bins 1 > /dev/null

echo "== nesting bound (100,000-deep JSONL row and recipe value) =="
# A document nested past json::kMaxNestingDepth must fail as a parse error
# that names the bound, at np 1 and 4, never overflow the stack. Under ASan
# a stack overflow exits 1 too, so the message is checked as well.
printf -v deep_pad '%100000s' ''
deep_open="${deep_pad// /[}"
deep_close="${deep_pad// /]}"
printf '{"text":"hello world","x":%s%s}\n' "${deep_open}" "${deep_close}" \
  > "${smoke_dir}/deep.jsonl"
printf 'project_name: deep\nprocess:\n  - text_length_filter:\n      min: %s%s\n' \
  "${deep_open}" "${deep_close}" > "${smoke_dir}/deep.yaml"
expect_nesting_error() {  # expect_nesting_error PATTERN COMMAND...
  local pattern="$1" rc=0
  shift
  "$@" > "${smoke_dir}/deep_out.txt" 2>&1 || rc=$?
  if [ "${rc}" -ne 1 ] || ! grep -q "${pattern}" "${smoke_dir}/deep_out.txt"; then
    head -c 2000 "${smoke_dir}/deep_out.txt" >&2
    echo "check.sh: $(basename "$1") on a 100,000-deep input exited" \
         "${rc}; expected 1 and '${pattern}'" >&2
    exit 1
  fi
}
for np in 1 4; do
  expect_nesting_error "jsonl line 1: nested deeper than 256 levels" \
    "${build_dir}/tools/dj_process" \
    --recipe "${repo_dir}/configs/recipes/minimal_dedup.yaml" \
    --input "${smoke_dir}/deep.jsonl" \
    --output "${smoke_dir}/deep_out.jsonl" --np "${np}"
done
expect_nesting_error "flow value nested deeper than 256 levels" \
  "${build_dir}/tools/dj_lint" "${smoke_dir}/deep.yaml"

echo "== bench-diff gate (perf-regression ledger) =="
# The committed baseline must self-compare clean, and the gate must
# actually be able to fail: the same compare with one metric hand-degraded
# 25% past its 10% tolerance has to exit 1 (2 would be a usage bug).
bench_baseline="${repo_dir}/bench/baselines/BENCH_io_data_plane.json"
"${build_dir}/tools/dj_bench_diff" "${bench_baseline}" "${bench_baseline}"
degrade_rc=0
"${build_dir}/tools/dj_bench_diff" --degrade parse_jsonl_serial_ms=1.25 \
  "${bench_baseline}" "${bench_baseline}" || degrade_rc=$?
if [ "${degrade_rc}" -ne 1 ]; then
  echo "check.sh: bench-diff gate self-test expected exit 1, got ${degrade_rc}" >&2
  exit 1
fi
# A malformed number must be a usage error: a NaN or garbage tolerance would
# switch the gate off, a negative one would flag identical reports, and a
# garbage degrade factor would zero the metric.
for bad_flag in "--tolerance nan" "--tolerance 5x" "--tolerance -1" \
  "--tolerance abc" "--tol parse_jsonl_serial_ms=nan" \
  "--degrade parse_jsonl_serial_ms=abc"; do
  bad_rc=0
  # shellcheck disable=SC2086  # each probe is a flag and its value
  "${build_dir}/tools/dj_bench_diff" ${bad_flag} \
    "${bench_baseline}" "${bench_baseline}" > /dev/null 2>&1 || bad_rc=$?
  if [ "${bad_rc}" -ne 2 ]; then
    echo "check.sh: dj_bench_diff ${bad_flag} expected exit 2," \
         "got ${bad_rc}" >&2
    exit 1
  fi
done

echo "== Release build of the main tree (-Werror) =="
# The tier-1 build is Release; warnings that only the optimizer raises
# (GCC's -Wmaybe-uninitialized and -Wrestrict) fail here, in every target
# of the tree, not only in the sources bench/e2e compiles.
release_dir="${build_dir}-release"
cmake -B "${release_dir}" -S "${repo_dir}" -DCMAKE_BUILD_TYPE=Release \
  -DDJ_WERROR=ON
cmake --build "${release_dir}" -j

echo "== Fig. 10 scalability bench (rows consistent across backends) =="
# Every backend must export the single-node run's rows at every node count;
# the bench exits 1 otherwise. It writes its JSON report to the current
# directory, so it runs from a temporary one.
mkdir -p "${smoke_dir}/fig10"
(cd "${smoke_dir}/fig10" &&
  "${release_dir}/bench/bench_fig10_scalability" > /dev/null)

echo "== benchmark smoke (bench/e2e, Release) =="
# bench/e2e is a standalone CMake project (the BENCHMARK.json command builds
# it on its own); build it from this tree with -Werror and run its
# correctness check, which holds every workload's export byte-identical to
# dj_process's.
e2e_dir="${build_dir}-e2e"
cmake -B "${e2e_dir}" -S "${repo_dir}/bench/e2e" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS=-Werror
cmake --build "${e2e_dir}" -j
ctest --test-dir "${e2e_dir}" --output-on-failure -R bench_e2e_smoke

echo "== TSan pass (pool + core/dist/obs + plan diff + property + dedup + parallel I/O + fault tests) =="
# The suppressions file only mutes the deliberate lock-order inversions
# that tests/concurrency_test.cc constructs on purpose (see tools/tsan.supp).
export TSAN_OPTIONS="suppressions=${repo_dir}/tools/tsan.supp"
tsan_dir="${build_dir}-tsan"
cmake -B "${tsan_dir}" -S "${repo_dir}" \
  -DCMAKE_BUILD_TYPE=Debug \
  -DDJ_SANITIZE=thread
cmake --build "${tsan_dir}" -j --target \
  common_test core_test dist_test obs_test data_test io_parallel_test \
  compress_test fault_test concurrency_test swar_test plan_diff_test \
  property_test ops_dedup_test
"${tsan_dir}/tests/common_test" --gtest_filter='ThreadPool*'
"${tsan_dir}/tests/swar_test"
"${tsan_dir}/tests/concurrency_test"
"${tsan_dir}/tests/core_test"
"${tsan_dir}/tests/plan_diff_test"
"${tsan_dir}/tests/property_test" \
  --gtest_filter='Recipes/ExecutorInvariantProperty.*'
"${tsan_dir}/tests/ops_dedup_test"
"${tsan_dir}/tests/dist_test"
"${tsan_dir}/tests/obs_test"
"${tsan_dir}/tests/data_test"
"${tsan_dir}/tests/io_parallel_test"
"${tsan_dir}/tests/compress_test"
# The full crash matrix is slow under TSan; run the fail-point/probe
# registry, determinism and checkpoint suites plus one representative
# recipe's matrix, with the cache off and on (the cache-on case stores and
# loads its entries through the pool's djlz and DJDS codecs).
"${tsan_dir}/tests/fault_test" --gtest_filter="FailPointTest.*:FaultDeterminismTest.*:FaultObsTest.*:ProbeTest.*:AllCrashWindows/*:AllDamages/*:OlderLayouts/*:CheckpointBackingTest.*:*CrashMatrixTest.KillAtEveryBoundaryResumeByteIdentical/minimal_dedup:*CrashMatrixTest.CacheOnKillAtEveryBoundaryResumeByteIdentical/minimal_dedup"

echo "== TSan under schedule perturbation (3 seeds) =="
# Seeded yield/sleep probes at lock boundaries, pool dispatch, and gather
# joins force interleavings a quiet machine never produces — exactly what
# TSan needs to see racy pairs overlap. Each seed is a different shake.
for seed in 1 2 3; do
  echo "-- DJ_SCHED seed=${seed} --"
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/common_test" --gtest_filter='ThreadPool*'
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/concurrency_test"
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/data_test"
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/io_parallel_test"
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/compress_test"
  DJ_SCHED="seed=${seed};p=0.02;max_us=100" \
    "${tsan_dir}/tests/dist_test"
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/plan_diff_test"
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/property_test" \
    --gtest_filter='Recipes/ExecutorInvariantProperty.*'
  DJ_SCHED="seed=${seed};p=0.05;max_us=200" \
    "${tsan_dir}/tests/ops_dedup_test"
done

echo "check.sh: all green"
