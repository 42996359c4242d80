#!/usr/bin/env bash
# Profile a simulator binary with gprofng using the repo-standard flags.
#
# Builds Release (LTO + native, the configuration every committed number is
# measured in), records one experiment with `gprofng collect app`, and
# prints the function-level profile sorted by exclusive CPU time — the view
# the packet-path optimization work is driven by.
#
# Usage: scripts/profile.sh [TARGET [ARGS...]]
#   (none)     ndpbench's perm_k32_ndp workload — the k=32 NDP permutation
#              BENCHMARK.json judges — as `--seed 1 --seconds 10 --trace 0`,
#              with benchmark/ built in a tree outside that directory
#   TARGET     any target of the root build, e.g. bench_eventcore
#   ARGS       passed through to TARGET
#
# Environment:
#   BUILD_DIR  build tree to use (default: build-ndpbench without TARGET,
#              build-release with one)
#   OUT_DIR    where the .er experiment directory goes
#              (default: /tmp/ndpsim-prof.<pid>.er; an existing directory
#              of that name is removed first)
#   LINES      how many functions to print (default: 30)
#
# Examples:
#   scripts/profile.sh                      # the k=32 benchmark workload
#   scripts/profile.sh bench_eventcore /tmp/b.json --quick
#
# Notes:
#   - perf/valgrind are unavailable in the dev container; gprofng (binutils)
#     is the supported profiler.
#   - Keep the machine otherwise idle: the simulator is single threaded and
#     the profile is CPU-time based.
#   - For call-tree views: gprofng display text -calltree "$OUT_DIR"
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_dir="${OUT_DIR:-/tmp/ndpsim-prof.$$.er}"
lines="${LINES:-30}"

command -v gprofng >/dev/null || {
  echo "error: gprofng not found (install binutils)" >&2
  exit 1
}

if [[ $# -gt 0 ]]; then
  target="$1"
  shift
  build_dir="${BUILD_DIR:-$repo_root/build-release}"
  cmake -S "$repo_root" -B "$build_dir" -DCMAKE_BUILD_TYPE=Release \
        -DBUILD_TESTING=OFF >/dev/null
  cmd=("$build_dir/$target" "$@")
else
  target=ndpbench
  build_dir="${BUILD_DIR:-$repo_root/build-ndpbench}"
  cmake -S "$repo_root/benchmark" -B "$build_dir" \
        -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmd=("$build_dir/ndpbench" --workload perm_k32_ndp --seed 1 --seconds 10
       --trace 0 --work-dir "$build_dir")
fi
cmake --build "$build_dir" --target "$target" -j"$(nproc)"

rm -rf "$out_dir"
gprofng collect app -o "$out_dir" "${cmd[@]}"

echo
echo "== functions by exclusive CPU time ($out_dir) =="
gprofng display text -limit "$lines" -functions "$out_dir"
echo
echo "experiment kept at $out_dir (view: gprofng display text -functions $out_dir)"
