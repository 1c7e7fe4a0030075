#!/usr/bin/env bash
# Tier-1 verification (ROADMAP.md): configure, build and run the full test
# suite. This is the gate every change must pass.
#
# Usage: tools/tier1.sh [build-dir]
#
# Environment:
#   MRMSIM_SANITIZE=1   add -fsanitize=address,undefined to the build
#   MRMSIM_ALLOC_TEST=1 also build + run the operator-new counting test
#   MRMSIM_CHECKED=1    compile the protocol-auditor hook sites in
#                       (-DMRMSIM_CHECKED=ON); benches then honor MRMSIM_CHECK
#   MRMSIM_WERROR=1     promote warnings to errors (-DMRMSIM_WERROR=ON)
#   MRMSIM_BENCH=0      skip the tracked benchmark JSONs (default: emit them,
#                       unless the build is sanitized)
#   CMAKE_BUILD_TYPE    build type (default RelWithDebInfo)
#
# After the tests pass, the tracked benches run one point at a time on a
# 4-thread sim worker pool (so spinning workers do not oversubscribe the
# cores) and rewrite BENCH_e12_bandwidth.json, BENCH_e12_closed_loop.json,
# BENCH_f2_fault_sweep.json and BENCH_e14_policy_tune.json at the repo root.
# They hold modelled outputs only, so a file changes only when the model
# does; `git status` after this script shows exactly that. The spec-on
# points dial in their own default speculation window. Sanitized builds
# skip this step: it would write the same files, only slower.
# Speed is measured by the repository benchmark (mrmbench/README.md).

set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

CMAKE_ARGS=(-DCMAKE_BUILD_TYPE="${CMAKE_BUILD_TYPE:-RelWithDebInfo}")
if [[ "${MRMSIM_SANITIZE:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all")
fi
if [[ "${MRMSIM_ALLOC_TEST:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DMRMSIM_ALLOC_TEST=ON)
fi
if [[ "${MRMSIM_CHECKED:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DMRMSIM_CHECKED=ON)
fi
if [[ "${MRMSIM_WERROR:-0}" == "1" ]]; then
  CMAKE_ARGS+=(-DMRMSIM_WERROR=ON)
fi

# Static analysis layer (DESIGN.md §12). The lints also run as ctest
# entries; running them first gives the fastest failure.
if command -v python3 > /dev/null 2>&1; then
  python3 tools/lint/determinism_lint.py
  python3 tools/lint/snapshot_lint.py
fi
tools/check/thread_safety_negative.sh || [[ $? -eq 77 ]]

cmake -S . -B "$BUILD_DIR" "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

if [[ "${MRMSIM_BENCH:-1}" == "1" && "${MRMSIM_SANITIZE:-0}" != "1" ]]; then
  for bench in bench_e12_bandwidth bench_e12_closed_loop bench_f2_fault_sweep \
               bench_e14_policy_tune; do
    MRMSIM_BENCH_THREADS=1 MRMSIM_SIM_THREADS=4 MRMSIM_SPEC_HORIZON=0 \
      MRMSIM_BENCH_OUT="$PWD" "./$BUILD_DIR/bench/$bench"
  done
fi
