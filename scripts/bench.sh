#!/usr/bin/env bash
# Build Release and refresh BENCH_eventcore.json at the repo root: the
# scheduler microbenchmark, the flow-churn recycling benchmark, the
# campaign-engine section (streaming vs keep-all RSS, resume identity),
# representative figure runs, flat dispatch, telemetry, packet path, route
# setup and fabric setup.  scripts/check_bench.py gates the result.
#
# Usage: scripts/bench.sh [output.json]
#   BENCH_QUICK=1  reduced iteration counts and a shorter campaign grid
#                  (CI smoke runs; per-job work is unchanged, so rates stay
#                  comparable while wall time drops)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo_root/build-bench}"
out="${1:-$repo_root/BENCH_eventcore.json}"

cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
      -DBUILD_TESTING=OFF >/dev/null
cmake --build "$build_dir" --target bench_eventcore -j"$(nproc)"

args=("$out")
if [[ "${BENCH_QUICK:-0}" != "0" ]]; then
  args+=("--quick")
fi
"$build_dir/bench_eventcore" "${args[@]}"
echo "updated $out"
