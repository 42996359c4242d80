#!/usr/bin/env bash
# End-to-end benchmark of ndpsim.  Builds benchmark/ — which links the
# unmodified library from the repository root — and runs `ndpbench`.
#
#   bash benchmark/run.sh --workload W --seed S [--seconds N] [--trace 0|1]
#       one workload in this process; the last stdout line is the JSON result
#   bash benchmark/run.sh
#       build, then every workload at seed 1, each in a fresh process
#
# --seconds defaults to BENCHMARK.json's run_seconds.  Works from any
# directory.  Build output, traces and campaign spill go to benchmark/.build/;
# build logs go to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$here/.build"
build="$out/cmake"
jobs="$(nproc 2>/dev/null || echo 1)"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$root/BENCHMARK.json")"

if [[ ! -f "$build/build.ninja" && ! -f "$build/Makefile" ]]; then
  generator=()
  if command -v ninja >/dev/null 2>&1; then generator=(-G Ninja); fi
  cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target ndpbench -j "$jobs" >&2

if [[ $# -gt 0 ]]; then
  has_seconds=0
  for arg in "$@"; do [[ "$arg" == --seconds ]] && has_seconds=1; done
  if [[ $has_seconds == 0 ]]; then set -- "$@" --seconds "$seconds"; fi
  exec "$build/ndpbench" --work-dir "$out" "$@"
fi
for w in perm_k32_ndp rpc_churn_k8_ndp web_dctcp_k8 campaign_k4_mix; do
  echo "== $w"
  "$build/ndpbench" --work-dir "$out" --workload "$w" --seed 1 \
    --seconds "$seconds" --trace 0
done
