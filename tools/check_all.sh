#!/bin/sh
# Runs every check the repository has, in order, and stops at the first
# failure:
#
#   1. tier-1: configure and build build/ (RelWithDebInfo, asserts on),
#      then the full ctest;
#   2. the fast ctest label and the SPSC ring tests (RingBuffer, outside
#      the fast label) in an AddressSanitizer tree (build-asan/) and in an
#      UndefinedBehaviorSanitizer tree (build-ubsan/);
#   3. the engine concurrency tests, the MSSP plan cells, the mapped
#      trace store's tests and every serve test (StreamServerTest,
#      ServeEquivalenceTest, RingBuffer) in a ThreadSanitizer tree
#      (build-tsan/): MSSP and baseline cells run on several workers, each
#      with its own execution engine over one shared dispatch table;
#      cursors in several threads race on one mapping's per-block verified
#      bits; and serve consumers read ring slots in place while producers
#      fill the others;
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

echo "== TSan, engine concurrency, MSSP plans, the trace store and the serve layer (build-tsan/)"
configure build-tsan -DSPECCTRL_TSAN=ON
(cd build-tsan &&
  ctest -R 'ExperimentRunner|ArenaRace|Determinism|MsspEnginePlan|MmapTraceStore|RingBuffer|StreamServerTest|ServeEquivalenceTest' \
    --output-on-failure -j "$JOBS")

echo "== perfbench self-test"
python3 perfbench/test_perfbench.py

echo "check_all: every check passed"
