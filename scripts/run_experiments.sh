#!/usr/bin/env bash
# Regenerate every experiment of DESIGN.md's per-experiment index.
# Usage: scripts/run_experiments.sh [build-dir]
set -euo pipefail

BUILD="${1:-build}"

# Every bench binary the build is expected to produce (bench/CMakeLists.txt).
# A missing entry aborts the run: a silently skipped experiment looks exactly
# like a regenerated one in the logs, which is worse than failing.
EXPECTED=(
  fig3_single_am
  fig4_hierarchy
  fig5_rules
  ablation_external_load
  multiconcern_twophase
  ablation_contract_split
  des_scale
  micro_runtime
  ablation_fault_tolerance
  ablation_chaos
  ablation_stability
  ablation_sched_policy
  des_fig4
  des_renegotiation
  micro_net
  micro_obs
  cluster_scale
)

# Only pick a generator for a fresh build dir; re-specifying one on an
# existing dir configured differently makes cmake abort.
if [ -f "$BUILD/CMakeCache.txt" ]; then
  cmake -B "$BUILD"
else
  cmake -B "$BUILD" -G Ninja
fi
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure

missing=0
for name in "${EXPECTED[@]}"; do
  if [ ! -x "$BUILD/bench/$name" ]; then
    echo "ERROR: expected bench binary missing or not executable: $BUILD/bench/$name" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  echo "ERROR: refusing to run with missing experiments (see above)." >&2
  exit 1
fi

for name in "${EXPECTED[@]}"; do
  b="$BUILD/bench/$name"
  echo
  echo "===================================================================="
  echo "== $name"
  echo "===================================================================="
  "$b"
done

# Distill the dataplane micro-benchmarks (E8 channel batching, E13 credit
# pipelining) into the machine-readable BENCH_dataplane_release.json, from
# its own Release tree (build-release/).
echo
echo "===================================================================="
echo "== BENCH_dataplane_release.json"
echo "===================================================================="
"$(dirname "$0")/bench_dataplane.sh" --release

# E1 observability capture: rerun fig3 with workers hosted in a bskd,
# archive the per-process metrics + trace files, merge them into one
# causally ordered cross-process trace, and strictly validate everything.
echo
echo "===================================================================="
echo "== E1 observability capture (obs/)"
echo "===================================================================="
"$(dirname "$0")/validate_obs.sh" "$BUILD" obs
