#!/usr/bin/env python3
"""Build and run one workload of the qcongest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The benchmark is built from the
checkout's sources (perfbench/CMakeLists.txt over src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; build output goes
to standard error. The last line of standard output is the benchmark's JSON
result. Exits nonzero, without a result, when the sources are missing or the
build fails, and with the result when an answer check failed.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")


def build(out):
    """Configure once, then bring qbench up to date. Returns the binary path."""
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        subprocess.run(["cmake", "--build", out, "--target", "qbench", "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(out, "qbench")


def main(argv):
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources at src/ next to perfbench/", file=sys.stderr)
        return 2
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    args = list(argv)
    workload = args[args.index("--workload") + 1] if "--workload" in args else "none"
    seed = args[args.index("--seed") + 1] if "--seed" in args else "0"
    work = os.path.join(out, f"work-{os.getpid()}")
    args += ["--work-dir", work]
    if "--trace" in args and args[args.index("--trace") + 1] == "1":
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        args += ["--spans", os.path.join(spans, f"{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        subprocess.run(["rm", "-rf", work], check=False)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
