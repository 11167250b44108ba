#!/usr/bin/env bash
# Regenerates the committed identification-throughput baseline: builds the
# throughput_identify bench in Release and writes BENCH_identify.json at
# the repository root.
#   scripts/bench_baseline.sh [--quick]
# --quick (the CI smoke mode) shrinks bank sizes and repetitions.
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=""
for arg in "$@"; do
  if [[ "$arg" == "--quick" ]]; then QUICK="--quick"; fi
done

cmake -B build-bench -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-bench -j --target throughput_identify
COMMIT="$(git describe --always --dirty 2>/dev/null || echo unknown)"
./build-bench/bench/throughput_identify ${QUICK} --json BENCH_identify.json \
  --commit "${COMMIT}"
