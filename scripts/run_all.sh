#!/usr/bin/env bash
# Build everything, run the full test suite, the repo linter, the
# determinism audit, every benchmark, every example, and the CLI smoke
# commands — the one-command reproduction driver.
#
# Every step runs even if an earlier one failed; the script exits non-zero
# if ANY step failed, naming the failures at the end. Steps go through
# run(), which captures the real per-stage exit code — anything outside a
# run() guard (cd, the final summary) is under set -e and aborts hard.
set -euo pipefail
cd "$(dirname "$0")/.."

failures=()

# run <name> <cmd...>: run a step, record its exit code, keep going. The
# `|| rc=$?` capture keeps errexit from killing the script and records the
# step's actual status (a bare $? after `if ! cmd` is the negation's — 0).
run() {
  local name=$1
  shift
  echo "===== ${name} ====="
  local rc=0
  "$@" || rc=$?
  if [ "${rc}" -ne 0 ]; then
    echo "FAILED: ${name} (exit ${rc})" >&2
    failures+=("${name}")
  fi
}

# A fresh checkout configures with Ninja; an existing build dir keeps
# whatever generator it was created with (cmake rejects a switch).
if [ -f build/CMakeCache.txt ]; then
  run "configure" cmake -B build
else
  run "configure" cmake -B build -G Ninja
fi
run "build" cmake --build build

run_tests() { ctest --test-dir build 2>&1 | tee test_output.txt; }
run "tests" run_tests

run "qlint" ./build/tools/qlint --root src --root tools --root bench \
  --root tests --allow tools/qlint_allow.txt

run "determinism-audit" ./build/tools/chaos_run --audit-determinism \
  --graph tree --nodes 15

run_benchmarks() {
  (for b in build/bench/*; do
    [ -x "$b" ] && [ -f "$b" ] || continue
    echo "===== $(basename "$b") ====="
    "$b" || return 1
  done) 2>&1 | tee bench_output.txt
}
run "benchmarks" run_benchmarks

run_examples() {
  local e
  for e in build/examples/example_*; do
    echo "===== $(basename "$e") ====="
    "$e" || return 1
  done
}
run "examples" run_examples

run "cache-smoke" scripts/cache_smoke.sh

run "cli-diameter" build/tools/qcongest_cli diameter_q --graph two-stars --nodes 64
run "cli-meeting" build/tools/qcongest_cli meeting_q --graph path --nodes 9
run "cli-girth" build/tools/qcongest_cli girth_q --graph cycle-trees --nodes 50

if [ "${#failures[@]}" -gt 0 ]; then
  echo
  echo "run_all: ${#failures[@]} step(s) failed: ${failures[*]}" >&2
  exit 1
fi
echo
echo "run_all: all steps passed"
