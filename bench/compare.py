#!/usr/bin/env python3
"""Compare two saved results of ``run.py`` metric by metric.

    python3 bench/compare.py OLD.json NEW.json

Result files are written under ``.bench_work/results/``; copy one aside
before re-running the same workload and seed.  Refuses (exit 2) when the
two runs measured a different backend, corpus digest, workload or trace
mode.  An end-to-end metric that got worse by more than its bound in
``BENCHMARK.json`` is flagged, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SAME = ("backend", "digest", "workload", "trace")


def load(path):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def bounds():
    spec = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    if not os.path.exists(spec):
        return {}
    return {m["name"]: m for m in load(spec)["end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    old, new = load(args.old), load(args.new)
    differ = [k for k in SAME if old["info"][k] != new["info"][k]]
    if differ:
        for k in differ:
            print(f"refusing to compare: {k} differs ({old['info'][k]!r} vs {new['info'][k]!r})",
                  file=sys.stderr)
        return 2
    limits = bounds()
    regressed = False
    for side, res in (("old", old), ("new", new)):
        r = res["result"]
        print(f"{side}: correct {r['correct']}, {r['failed']} of {r['attempted']} failed,"
              f" calibration {res['info']['calibration_s_p50']:.6g} s")
    for name, o in old["result"]["metrics"].items():
        a, b = o["value"], new["result"]["metrics"][name]["value"]
        change = (b - a) / a if a else float("nan")
        flag = ""
        spec = limits.get(name)
        if spec is not None and a:
            worse = change if spec["better"] == "lower" else -change
            if worse > spec["bound"]:
                flag, regressed = f"  WORSE than bound {spec['bound']}", True
        print(f"{name:<40} {a:>14.6g} {b:>14.6g} {o['unit']:<6} {change:+8.1%}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
