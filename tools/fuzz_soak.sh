#!/usr/bin/env bash
# Soak-run the randomized suites under rotating seeds.
#
# Default mode: each iteration exports a fresh LOSSYFFT_FUZZ_SEED and a
# fresh LOSSYFFT_FAULT_SEED and runs the `fuzz` CMake workflow preset
# (configure + build + `ctest -L fuzz`), so every run draws new layouts,
# codec parameters, and ring shapes through every transport path, plus a
# new coded-exchange fault schedule (drops / delays / corrupts under
# parity) through every coded path. Iterations also rotate the
# LOSSYFFT_SIMD dispatch override through auto/scalar/avx2/avx512 so the
# soak exercises every kernel tier the host supports (an unsupported
# level warns once and falls back — still a valid run of the best
# supported tier): the codec kernels, and the 1-D FFT kernel through
# fft1d_test's batch and cross-tier identity suites (fuzz label).
#
# Serving mode (`--serving`): each iteration instead exports a fresh
# LOSSYFFT_SERVE_SEED and runs the `serving-soak` workflow preset, which
# drives bench_serving's many-client soak (100+ concurrent sessions with
# mixed signatures against one daemon) plus the serving-labeled tests.
# The seed varies the client mix, per-client jitter, and submission
# order, so repeated runs walk different interleavings of the daemon's
# scheduler, plan cache, and teardown paths.
#
# Failures are collected and reported at the end with the exact seeds,
# the SIMD level, and a one-line reproduction command — a soak failure is
# only useful if it can be replayed.
#
# Usage: tools/fuzz_soak.sh [--serving] [runs] [start-seed]
#   runs        number of iterations (default 10)
#   start-seed  first seed (default: current epoch seconds); subsequent
#               runs advance by a fixed prime stride, and the fault seed
#               is a fixed offset of the fuzz seed, so a soak is fully
#               described by (mode, runs, start-seed).
#
# CI runs a short fixed-seed soak via the `ci-soak` workflow preset.
set -u

MODE=fuzz
if [ "${1:-}" = "--serving" ]; then
  MODE=serving
  shift
fi
RUNS="${1:-10}"
SEED="${2:-$(date +%s)}"
cd "$(dirname "$0")/.." || exit 2

SIMD_LEVELS=(auto scalar avx2 avx512)
failed=()
for i in $(seq 1 "$RUNS"); do
  SIMD="${SIMD_LEVELS[$(( (i - 1) % ${#SIMD_LEVELS[@]} ))]}"
  if [ "$MODE" = "serving" ]; then
    echo "== serving soak ${i}/${RUNS}: LOSSYFFT_SERVE_SEED=${SEED}" \
         "LOSSYFFT_SIMD=${SIMD} =="
    if ! LOSSYFFT_SERVE_SEED="$SEED" LOSSYFFT_SIMD="$SIMD" \
         cmake --workflow --preset serving-soak; then
      failed+=("LOSSYFFT_SERVE_SEED=${SEED} LOSSYFFT_SIMD=${SIMD} cmake --workflow --preset serving-soak")
    fi
  else
    FAULT=$((SEED + 104729))
    echo "== fuzz soak ${i}/${RUNS}: LOSSYFFT_FUZZ_SEED=${SEED}" \
         "LOSSYFFT_FAULT_SEED=${FAULT} LOSSYFFT_SIMD=${SIMD} =="
    if ! LOSSYFFT_FUZZ_SEED="$SEED" LOSSYFFT_FAULT_SEED="$FAULT" \
         LOSSYFFT_SIMD="$SIMD" cmake --workflow --preset fuzz; then
      failed+=("LOSSYFFT_FUZZ_SEED=${SEED} LOSSYFFT_FAULT_SEED=${FAULT} LOSSYFFT_SIMD=${SIMD} cmake --workflow --preset fuzz")
    fi
  fi
  SEED=$((SEED + 7919))
done

if [ "${#failed[@]}" -gt 0 ]; then
  echo ""
  echo "${MODE^^} SOAK: ${#failed[@]}/${RUNS} runs FAILED. Reproduce with:"
  for s in "${failed[@]}"; do
    echo "  ${s}"
  done
  exit 1
fi
echo "${MODE} soak: ${RUNS}/${RUNS} runs passed"
