#!/usr/bin/env python3
"""Runs each workload of the benchmark many times and prints, per metric,
the median, the quartiles and the spread (interquartile distance as a share
of the median), next to the bound BENCHMARK.json fixes for it.

Usage, from the root of a checkout:

    python3 htapbench/repeat.py                      # every workload, 10 seeds
    python3 htapbench/repeat.py --workloads subench-htap --runs 5
    python3 htapbench/repeat.py --trace 1            # per-layer metrics

Seeds are --seed0, --seed0+1, ... so every run gets different inputs. A
metric whose spread is not below a third of its bound is flagged WIDE.
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


def host_line():
    cc = "unknown"
    try:
        cc = subprocess.run(["c++", "--version"], capture_output=True,
                            text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    commit = "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, cwd=ROOT)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except OSError:
        pass
    return "host: nproc %d, kernel %s, %s, commit %s" % (
        os.cpu_count() or 0, platform.release(), cc, commit)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.time() - t0
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit("%s seed %d exited %d" % (workload, seed,
                                                   out.returncode))
    return json.loads(lines[-1]), wall


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    print(host_line())
    print("runs %d, %d s each, trace %d" % (args.runs, args.seconds,
                                            args.trace))
    for workload in args.workloads.split(","):
        values, shares, walls, correct = {}, set(), [], True
        units = {}
        for i in range(args.runs):
            res, wall = run_once(workload, args.seed0 + i, args.seconds,
                                 args.trace)
            walls.append(wall)
            correct = correct and res["correct"]
            shares.add((res["failed"], res["attempted"]) if res["failed"]
                       else 0.0)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("\n%s: correct %s, failed share %s, wall per run %.1f-%.1f s"
              % (workload, correct, sorted(shares, key=str), min(walls),
                 max(walls)))
        print("  %-40s %12s %12s %12s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else "WIDE"
            print("  %-40s %12.6g %12.6g %12.6g %7.1f%% %6s %s %s" % (
                name, med, q1, q3, 100 * spread,
                "" if bound is None else "%.2f" % bound, flag, units[name]))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
