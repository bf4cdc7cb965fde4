#!/bin/sh
# Runs every check the repository has, in order, and stops at the first
# failure:
#
#   1. tier-1: configure and build build/ (RelWithDebInfo, asserts on),
#      then the full ctest;
#   2. the fast ctest label and the SPSC ring tests (RingBuffer, outside
#      the fast label) in an AddressSanitizer tree (build-asan/) and in an
#      UndefinedBehaviorSanitizer tree (build-ubsan/); the fast label
#      includes the reactive controller against its executable FSM spec
#      over ~10^7 events, with the built-in latency model and with a
#      request sink (fsm_spec.FsmSpecTest.*), and the execution engine's
#      paged copy-on-write memory over a borrowed image (PagedMemoryTest:
#      page edges, growth past a partial last page, the memory cap);
#      ASan does not track mapped bytes, so it checks no read of a
#      record()ed trace (an anonymous mapping) or a mapFile() trace, but
#      MaterializedTrace::fromBytes keeps the caller's vector, so the
#      checked decoder's bounds over untrusted bytes (TraceReplayFuzzTest,
#      TraceFileTest) stay under ASan;
#   3. the engine concurrency tests (the plan runner, the arena races,
#      determinism and the ThreadPool itself), the trace arena's own
#      tests (TraceArenaTest: per-key materialize and release), the MSSP
#      plan cells, the mapped trace store's tests and every serve test
#      (StreamServerTest, ServeEquivalenceTest, RingBuffer) in a
#      ThreadSanitizer tree (build-tsan/): MSSP and baseline cells run on
#      several workers, each with its own execution engine over one shared
#      dispatch table, and in MsspEnginePlanTest.CellsOverOneSharedProgram-
#      MatchSerial every cell of a benchmark borrows one program's memory
#      image; cursors in several threads race on one mapping's per-block
#      verified bits; and serve consumers read ring slots in place while
#      producers fill the others;
#   4. perfbench's own tests.
#
# Usage: tools/check_all.sh   (from anywhere; takes no options)

set -eu

cd "$(dirname "$0")/.."
JOBS=$(nproc)

# configure <dir> [cmake options...]: configures and builds one tree.
configure() {
  Dir=$1
  shift
  cmake -B "$Dir" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "$Dir" -j "$JOBS"
}

echo "== tier-1 (build/)"
configure build
(cd build && ctest --output-on-failure -j "$JOBS")

echo "== ASan, fast label and the ring (build-asan/)"
configure build-asan -DSPECCTRL_ASAN=ON
(cd build-asan && ctest -L fast --output-on-failure -j "$JOBS" &&
  ctest -R RingBuffer --output-on-failure -j "$JOBS")

echo "== UBSan, fast label and the ring (build-ubsan/)"
configure build-ubsan -DSPECCTRL_UBSAN=ON
(cd build-ubsan && ctest -L fast --output-on-failure -j "$JOBS" &&
  ctest -R RingBuffer --output-on-failure -j "$JOBS")

echo "== TSan, engine concurrency, the trace arena, MSSP plans, the trace store and the serve layer (build-tsan/)"
configure build-tsan -DSPECCTRL_TSAN=ON
(cd build-tsan &&
  ctest -R 'ExperimentRunner|ArenaRace|TraceArena|Determinism|ThreadPool|MsspEnginePlan|MmapTraceStore|RingBuffer|StreamServerTest|ServeEquivalenceTest' \
    --output-on-failure -j "$JOBS")

echo "== perfbench self-test"
python3 perfbench/test_perfbench.py

echo "check_all: every check passed"
