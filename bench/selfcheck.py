#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 bench/selfcheck.py [--workload NAME] [--seed N]

Makes two traced one-pass runs with the same seed and requires identical
corpus digests, optima, assignments, ``model.*`` figures, ``.calls``
counts and the ratios built from counts; then requires that the next
seed gives a different digest.  Run from the repository root; exits 1
on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from generators import WORKLOADS, corpus, digest  # noqa: E402


def traced_pass(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=200, check=True)
    info = json.loads(out.stdout.strip().splitlines()[-2])
    with open(info["result_file"], encoding="ascii") as fh:
        return json.load(fh)


def deterministic(saved):
    metrics = saved["result"]["metrics"]
    keep = {k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "ratio")}
    return {"digest": saved["info"]["digest"], "answers": saved["answers"], "metrics": keep}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="wcsp-planted", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    first = deterministic(traced_pass(args.workload, args.seed))
    second = deterministic(traced_pass(args.workload, args.seed))
    ok = True
    for key in ("digest", "answers", "metrics"):
        same = first[key] == second[key]
        ok &= same
        print(f"{'PASS' if same else 'FAIL'} same seed, same {key}")
    if first["metrics"] != second["metrics"]:
        for k, v in first["metrics"].items():
            if second["metrics"][k] != v:
                print(f"  {k}: {v!r} vs {second['metrics'][k]!r}")
    other = digest(corpus(WORKLOADS[args.workload], args.seed + 1))
    differs = other != first["digest"]
    ok &= differs
    print(f"{'PASS' if differs else 'FAIL'} seed {args.seed + 1} changes the digest")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
