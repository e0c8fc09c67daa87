#!/usr/bin/env python3
"""Run every workload untraced and traced, and print all metrics.

    python3 bench/report.py [--seed N] [--seconds S] [--workloads a,b]

For each workload: the end-to-end metrics by name and unit with their
sample counts, the failed share with its counts, and the tracing
overhead (traced against untraced instances per second); then one table
of the per-layer metrics from the traced runs.  Run from the
repository root.  Exits 1 if any workload answered wrongly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from generators import WORKLOADS  # noqa: E402
from run import END_TO_END, PER_LAYER  # noqa: E402


def bench(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200, check=True)
    info, result = out.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    layers = {}
    wrong = False
    for name in names:
        info, plain = bench(name, args.seed, args.seconds, 0)
        tinfo, traced = bench(name, args.seed, args.seconds, 1)
        wrong |= not (plain["correct"] and traced["correct"])
        print(f"{name}  seed {info['seed']}  backend {info['backend']}  python {info['python']}"
              f"  numpy {info['numpy']}  nproc {info['nproc']}  digest {info['digest'][:16]}")
        print(f"  why: {info['why']}")
        for metric, unit in END_TO_END:
            print(f"  {metric:<16} {plain['metrics'][metric]['value']:>12.6g} {unit:<4}"
                  f"  ({info['samples'][metric]} samples)")
        print(f"  {'failed_share':<16} {info['failed_share']:>12.6g}"
              f"       ({plain['failed']} of {plain['attempted']} solves)")
        ips = plain["metrics"]["instances_per_s"]["value"]
        tips = traced["metrics"]["trace.instances_per_s"]["value"]
        print(f"  tracing overhead: {tips:.6g} 1/s traced vs {ips:.6g} 1/s untraced"
              f" ({ips / tips - 1:+.1%} time per instance, {tinfo['spans']} spans;"
              f" calibration {tinfo['calibration_s_p50']:.3g} vs {info['calibration_s_p50']:.3g} s)")
        layers[name] = traced["metrics"]
        print()
    print("per-layer metrics, traced runs; counts and seconds are per corpus pass")
    print(f"{'metric':<40} {'unit':<6}" + "".join(f" {n:>16}" for n in names))
    for metric, unit in PER_LAYER:
        print(f"{metric:<40} {unit:<6}"
              + "".join(f" {layers[n][metric]['value']:>16.6g}" for n in names))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
