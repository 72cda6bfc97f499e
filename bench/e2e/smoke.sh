#!/usr/bin/env bash
# bench_e2e_smoke: every workload at 2% size, 2 timed and 1 traced pass.
# Asserts that no pass fails, that the result line carries exactly the
# metrics BENCHMARK.json declares (end-to-end with --trace 0, per-layer with
# --trace 1), and that the pass output is byte-identical to dj_process on
# the same recipe and input, so the benchmark times the CLI's path.
#
# Usage: smoke.sh <build-dir> <repo-root>
set -euo pipefail

build=$1
root=$2
out="$build/smoke"
rm -rf "$out"
trap 'rm -rf "$out"' EXIT

check_line() {  # check_line SECTION RESULT-LINE
  python3 - "$root/BENCHMARK.json" "$1" "$2" <<'EOF'
import json, sys
spec, section, line = sys.argv[1], sys.argv[2], sys.argv[3]
declared = {m["name"]: m["unit"] for m in json.load(open(spec))[section]}
result = json.loads(line)
assert result["correct"] and result["failed"] == 0, result
assert result["attempted"] >= 1, result
emitted = {k: v["unit"] for k, v in result["metrics"].items()}
assert emitted == declared, (sorted(set(emitted) ^ set(declared)), section)
EOF
}

for workload in web_en near_dup ingest_export arxiv_cache; do
  for trace in 0 1; do
    line=$("$build/bench_e2e" --workload "$workload" --seed 1 --scale 0.02 \
      --passes 2 --traced-passes 1 --trace "$trace" --root "$root" \
      --out "$out" | tail -n 1)
    section=$([[ $trace == 0 ]] && echo end_to_end || echo per_layer)
    check_line "$section" "$line"
  done

  extra=()
  case $workload in
    web_en) recipe=configs/recipes/pretrain_general_en.yaml; output=out.jsonl ;;
    near_dup) recipe=configs/recipes/minimal_dedup.yaml; output=out.jsonl ;;
    ingest_export)
      recipe=bench/e2e/recipes/ingest_export.yaml; output=out.djds.djlz ;;
    arxiv_cache)
      recipe=configs/recipes/pretrain_arxiv.yaml; output=out.jsonl
      extra=(--cache-dir "$out/dj_cache" --checkpoint-dir "$out/dj_ckpt") ;;
  esac
  "$build/dj_process" --recipe "$root/$recipe" \
    --input "$out/$workload/in.jsonl" --output "$out/dj_$output" \
    "${extra[@]}" >/dev/null
  cmp "$out/$workload/$output" "$out/dj_$output"
  echo "$workload: ok"
done
