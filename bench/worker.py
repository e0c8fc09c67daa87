"""Measurement child: solves one corpus in a closed loop through the CLI.

Run by ``run.py`` in a fresh interpreter per workload, so that peak RSS
and import state belong to this workload alone.  Each solve is one
in-process ``dafbe solve --format json-lines FILE`` through
``dafbe.cli.main``, one instance at a time.  The loop runs whole passes
over the corpus, in corpus order, and starts another pass only while
that pass is expected to end within ``--seconds`` (at least one pass).

Writes a JSON file with one row per solve (corpus index, seconds, exit
code, captured output, calibration seconds) and, with ``--trace 1``,
per-pass layer totals plus a spans file next to it.  A row's calibration
is the mean of the two calibration slices timed just before and just
after its solve.  Checking the answers is left to the
parent, outside the timed loop.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

SOLVE_TIME_LIMIT_S = 60  # per instance; a run over it is a failed operation
CALIBRATION_ITERATIONS = 100_000  # about 25 ms on the host the benchmark was tuned on


def calibrate():
    """Seconds for a fixed slice of interpreter work that does not touch dafbe.

    The host's speed for identical work drifts by up to 1.6x, in
    stretches of seconds to about a minute, which is as long as a whole
    run.  A slice timed on either side of each solve shows how fast the
    machine was during it; ``run.py`` scales solve times by it.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_ITERATIONS):
        table[i % 97] = table.get(i % 97, 0) + i * 3 // 7
    sorted(table.values())
    return time.perf_counter() - t0


def solve_loop(files, seconds, tracer):
    from dafbe import cli

    rows = []
    passes = 0
    loop_start = time.perf_counter()
    before = calibrate()
    while True:
        pass_start = time.perf_counter()
        for i, path in enumerate(files):
            buf = io.StringIO()
            if tracer is not None:
                tracer.instance_id = len(rows)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["solve", "--format", "json-lines",
                               "--time-limit", str(SOLVE_TIME_LIMIT_S), path])
            elapsed = time.perf_counter() - t0
            after = calibrate()
            rows.append([i, elapsed, rc, buf.getvalue(), (before + after) / 2])
            before = after
        passes += 1
        now = time.perf_counter()
        if now - loop_start + (now - pass_start) > seconds:
            return rows, passes, now - loop_start


def layer_totals(tracer, passes):
    """Per-pass span totals and boundary counts, by metric name."""
    out = {}
    for name, (calls, total, own) in tracer.summary().items():
        out[f"{name}.calls"] = calls / passes
        out[f"{name}.s"] = total / passes
        out[f"{name}.self_s"] = own / passes
    for key, val in tracer.counts.items():
        out[f"count.{key}"] = val / passes
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--files", required=True, help="text file listing one instance per line")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="result JSON path")
    args = ap.parse_args(argv)
    with open(args.files, encoding="ascii") as fh:
        files = fh.read().split()

    import numpy

    import dafbe
    import dafbe.cli  # noqa: F401 - traced layers must be loaded before install

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    rows, passes, elapsed = solve_loop(files, args.seconds, tracer)
    result = {
        "rows": rows,
        "passes": passes,
        "elapsed_s": elapsed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "backend": dafbe.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["layers"] = layer_totals(tracer, passes)
        result["spans"] = len(tracer.start)
        spans_path = os.path.splitext(args.out)[0] + ".spans.tsv"
        tracer.write(spans_path)
        result["spans_file"] = spans_path
    with open(args.out, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
