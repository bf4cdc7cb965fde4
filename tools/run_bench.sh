#!/usr/bin/env sh
# Runs the perf-trajectory microbenches (MSSP simulator throughput +
# trace pipeline + trace-arena sweep amortization + streaming-server
# ingest + SCT2 decode and mapped replay) and records google-benchmark
# JSON next to the build: BENCH_mssp.json, BENCH_trace_pipe.json,
# BENCH_arena.json, BENCH_serve.json, and BENCH_decode.json.
#
# Usage: tools/run_bench.sh [build-dir] [output-json]
#   build-dir    defaults to ./build
#   output-json  defaults to <build-dir>/BENCH_mssp.json
#
# The MSSP half is also reachable as `cmake --build <build-dir> --target
# bench-trajectory`, and the serve half as `--target bench-serve`.

set -eu

BUILD_DIR="${1:-build}"
OUT="${2:-${BUILD_DIR}/BENCH_mssp.json}"
BIN="${BUILD_DIR}/bench/mssp_sim"
PIPE_BIN="${BUILD_DIR}/bench/trace_pipe"
PIPE_OUT="${BUILD_DIR}/BENCH_trace_pipe.json"

if [ ! -x "${BIN}" ]; then
  echo "error: ${BIN} not built (cmake --build ${BUILD_DIR} --target mssp_sim)" >&2
  exit 1
fi

"${BIN}" \
  --benchmark_out="${OUT}" \
  --benchmark_out_format=json \
  --benchmark_counters_tabular=true

echo "wrote ${OUT}"

if [ -x "${PIPE_BIN}" ]; then
  "${PIPE_BIN}" \
    --benchmark_filter='-BM_TraceArena' \
    --benchmark_out="${PIPE_OUT}" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

  echo "wrote ${PIPE_OUT}"

  ARENA_OUT="${BUILD_DIR}/BENCH_arena.json"
  "${PIPE_BIN}" \
    --benchmark_filter=BM_TraceArena \
    --benchmark_out="${ARENA_OUT}" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

  echo "wrote ${ARENA_OUT}"
else
  echo "note: ${PIPE_BIN} not built; skipped BENCH_trace_pipe.json" >&2
fi

SERVE_BIN="${BUILD_DIR}/bench/serve_ingest"
SERVE_OUT="${BUILD_DIR}/BENCH_serve.json"
if [ -x "${SERVE_BIN}" ]; then
  "${SERVE_BIN}" \
    --benchmark_out="${SERVE_OUT}" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

  echo "wrote ${SERVE_OUT}"
else
  echo "note: ${SERVE_BIN} not built; skipped BENCH_serve.json" >&2
fi

DECODE_BIN="${BUILD_DIR}/bench/trace_decode"
if [ -x "${DECODE_BIN}" ]; then
  DECODE_OUT="${BUILD_DIR}/BENCH_decode.json"
  "${DECODE_BIN}" \
    --benchmark_filter='BM_Decode|BM_Replay' \
    --benchmark_out="${DECODE_OUT}" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

  echo "wrote ${DECODE_OUT}"
else
  echo "note: ${DECODE_BIN} not built; skipped BENCH_decode.json" >&2
fi
