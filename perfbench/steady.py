#!/usr/bin/env python3
"""Steadiness check of the qcongest benchmark.

    python3 perfbench/steady.py [--runs K] [--seconds S] [--first-seed N]
                                [--workloads a,b] [--out FILE] [--from FILE]

Runs each workload K times through perfbench/run.py, one seed per run
(N, N+1, ...), one run at a time, and prints for every end-to-end metric the
median, the quartiles (statistics.quantiles, n=4), the spread
(Q3 - Q1) / median, and the max/min ratio, next to the bound BENCHMARK.json
gives it. Every run records the machine: nproc, CPU model, and the load
average before and after. With --out, all of it is written as JSON; --from
summarizes such a file again (against the current bounds) without running.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def loadavg():
    try:
        return os.getloadavg()[0]
    except OSError:
        return -1.0


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = loadavg()
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {
        "workload": workload, "seed": seed, "exit": proc.returncode, "wall_s": round(wall, 2),
        "notes": [line for line in lines if line.startswith("# ")],
        "stderr_tail": proc.stderr.strip().splitlines()[-5:] if proc.returncode else [],
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "load_before": before, "load_after": loadavg()},
        "result": result,
    }


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    lo, hi = min(values), max(values)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"),
            "max_over_min": hi / lo if lo else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--from", dest="source", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    saved = None
    if args.source:
        with open(args.source) as f:
            saved = json.load(f)
        seconds = saved["seconds"]
    report = {"seconds": seconds, "runs": [], "summary": {}}
    ok = True
    for w in workloads:
        if saved:
            runs = [r for r in saved["runs"] if r["workload"] == w]
        else:
            runs = [run_once(w, args.first_seed + i, seconds) for i in range(args.runs)]
        report["runs"] += runs
        good = [r for r in runs if r["exit"] == 0 and r["result"] and r["result"]["correct"]]
        if not runs:
            print(f"== {w}: no runs")
            ok = False
            continue
        print(f"== {w}: {len(good)}/{len(runs)} runs correct, seeds "
              f"{runs[0]['seed']}..{runs[-1]['seed']}, {seconds} s each; machine: nproc "
              f"{runs[0]['machine']['nproc']}, {runs[0]['machine']['cpu']}, load "
              + " ".join(f"{r['machine']['load_before']:.2f}" for r in runs))
        if len(good) < len(runs):
            ok = False
            for r in runs:
                if r not in good:
                    print(f"   seed {r['seed']} failed (exit {r['exit']}):")
                    for line in r.get("notes", []) + r.get("stderr_tail", []):
                        if "MISMATCH" in line or not line.startswith("#"):
                            print(f"     {line}")
        if len(good) < 2:
            continue
        report["summary"][w] = {}
        print(f"   {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
              f"{'bound/3':>8} {'max/min':>8}")
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in good
                      if name in r["result"]["metrics"]]
            if len(values) < 2:
                continue
            s = summarize(values)
            report["summary"][w][name] = s
            flag = "" if s["spread"] <= bounds[name] / 3 or name == "setup_s" else "  WIDE"
            print(f"   {name:<20} {s['median']:>12.5g} {s['q1']:>12.5g} {s['q3']:>12.5g} "
                  f"{s['spread']:>8.4f} {bounds[name] / 3:>8.4f} {s['max_over_min']:>8.4f}{flag}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
