#!/bin/sh
# Full verification: the tier-1 suite, the ThreadSanitizer subset, and
# the chaos/process matrix, in that order (fastest signal first).
#
#   scripts/verify.sh [build-dir]     default build dir: ./build
#
# The tsan pass needs a tree configured with -DSIA_TSAN=ON to actually
# instrument; on a plain tree it still runs the same tests uninstrumented
# (which is the tier-1 superset, so it is cheap). Likewise `ctest -L asan`
# in a -DSIA_ASAN=ON tree; that subset is not run here by default because
# the sanitizers cannot share one tree.
set -e

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$root/build"}

cmake -B "$build" -S "$root"
cmake --build "$build" -j "$(nproc)"

cd "$build"
echo "== tier-1 =="
ctest --output-on-failure
echo "== tsan subset =="
ctest --output-on-failure -L tsan
echo "== chaos matrix =="
ctest --output-on-failure -L chaos
echo "== planner bench =="
# End-to-end autotune check: plans, runs, calibrates, and exits nonzero
# if a tuned run's checksum drifts from the hand-configured cells. The
# JSON stays in the build tree (the committed BENCH_runtime.json is only
# refreshed by the bench_json target); json.tool fails on a malformed file.
"$build/bench/bench_json" "$build/BENCH_plan_check.json" plan
python3 -m json.tool "$build/BENCH_plan_check.json" > /dev/null
echo "== threaded grids =="
# The pardo, threads and sparse grids gate threaded checksums bit for bit
# against their serial cells (and the sparse speedup): the guard on the
# interpreter thread running window entries itself.
"$build/bench/bench_json" "$build/BENCH_grids_check.json" pardo threads sparse
python3 -m json.tool "$build/BENCH_grids_check.json" > /dev/null
echo "verify: all suites passed"
