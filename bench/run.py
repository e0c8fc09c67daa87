#!/usr/bin/env python3
"""Benchmark of ``dafbe solve`` on seeded, generated corpora.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the program is imported from ``./src``.
Set-up, untimed: write the workload's corpus for the seed under
``.bench_work/``, parse it, and compute each instance's reference answer
(dense-table oracle, or a zero lower-bound certificate where the oracle
cannot go).  With ``--trace 0`` it also times fresh interpreters up to
``import dafbe``.  A child process then solves the corpus in a closed
loop (see ``worker.py``); afterwards every answer is checked.

The host's speed drifts by up to 1.6x for up to a minute at a time, so
each solve time is scaled to a nominal machine speed: it is multiplied
by ``NOMINAL_CALIBRATION_S`` over the mean time of the two slices of
fixed pure-Python work timed just before and just after it.  The
unscaled figures are in the info line.  ``setup_s`` is not scaled:
interpreter start-up tracks the slice too loosely for that to help.

The last stdout line is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The line before it records what
was measured: backend, Python and numpy versions, nproc, corpus digest
and sample counts.  Both also go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from generators import WORKLOADS, corpus, digest  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_SAMPLES = 9
DEADLINE_S = 170  # the whole run, set-up included
REL_TOL = 1e-9
# what worker.calibrate() takes on the 2-core Xeon host the benchmark was
# tuned on; scaled solve times are seconds at that speed
NOMINAL_CALIBRATION_S = 0.025

# (metric, unit) in the order BENCHMARK.json lists them
END_TO_END = [("instances_per_s", "1/s"), ("solve_s.p50", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s")]
_AUTOMATA = ("intersect", "union", "difference", "remove_level", "insert_wildcard_level")
_KERNELS = ("compile_sorted", "product", "minimize", "determinize", "remove_level")
PER_LAYER = (
    [("cli.self_s", "s"), ("formats.parse.s", "s"),
     ("keying.from_values.calls", "count"), ("keying.from_values.values", "count"),
     ("keying.from_values.s", "s"), ("keying.redundancy.s", "s"),
     ("model.min_fill_ordering.s", "s"), ("model.induced_width.s", "s"),
     ("model.bucket_elimination.self_s", "s"), ("model.peak_live_states", "count"),
     ("model.max_entry_count", "count"), ("model.max_automaton_states", "count"),
     ("model.determinization_growth_avg", "ratio"),
     ("factor.from_table.calls", "count"), ("factor.from_table.s", "s"),
     ("factor.combine.calls", "count"), ("factor.combine.s", "s"),
     ("factor.add_levels.s", "s"), ("factor.project.calls", "count"),
     ("factor.project.s", "s"), ("factor.value_at.calls", "count"),
     ("factor.combine.pair_nonempty_ratio", "ratio"), ("factor.project.kept_ratio", "ratio")]
    + [(f"automata.{op}.{k}", u) for op in _AUTOMATA for k, u in (("calls", "count"), ("s", "s"))]
    + [(f"kernels.{op}.{k}", u) for op in _KERNELS for k, u in (("calls", "count"), ("s", "s"))]
    + [("trace.instances_per_s", "1/s")]
)


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("DAFBE_EPSILON", None)  # measure the default configuration
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def write_corpus(workload, seed, run_dir):
    """Write the corpus; returns (paths, digest)."""
    corpus_dir = os.path.join(run_dir, "corpus")
    os.makedirs(corpus_dir, exist_ok=True)
    pairs = corpus(workload, seed)
    paths = []
    for name, text in pairs:
        path = os.path.join(corpus_dir, name)
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
        paths.append(path)
    return paths, digest(pairs)


def references(workload, paths):
    """Parsed models and reference optima, computed before any timing."""
    from dafbe import formats, oracle

    models = [formats.parse_path(p) for p in paths]
    if workload.check == "certificate":
        return models, [0.0] * len(models)  # nonnegative costs: 0 is a lower bound
    return models, [oracle.tabular_be(m).optimum for m in models]


def time_setup(env):
    """Seconds from launching a fresh interpreter to dafbe imported, backend picked."""
    samples, backends = [], set()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        try:
            out = subprocess.run([sys.executable, "-c", "import dafbe; print(dafbe.BACKEND)"],
                                 env=env, capture_output=True, text=True, timeout=60, check=True)
        except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
            raise BenchError(f"fresh interpreter could not import dafbe: {exc}") from None
        samples.append(time.perf_counter() - t0)
        backends.add(out.stdout.strip())
    return samples, backends


def close(a, b):
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0 if b else 1e-12)


def record(row):
    """The solve's json-lines record, or None if it exited badly or is unreadable."""
    _, _, rc, out, _ = row
    if rc != 0:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_row(row, models, refs):
    """None if the solve is right, else why it is wrong."""
    from dafbe.errors import DafbeError

    index, rc = row[0], row[2]
    rec = record(row)
    if rec is None:
        return f"exit code {rc}, or output that is not a record"
    if rec.get("status") != "optimal":
        return f"status {rec.get('status')}"
    optimum = rec["optimum"]
    try:
        value = models[index].evaluate(rec["assignment"])
    except (DafbeError, IndexError, TypeError):
        return "assignment cannot be evaluated"
    if not close(value, optimum):
        return f"assignment scores {value!r}, reported optimum {optimum!r}"
    if not close(optimum, refs[index]):
        return f"optimum {optimum!r}, reference {refs[index]!r}"
    return None


def model_stats(first_pass):
    """model.* figures over one pass: maxima of the peaks, mean growth."""
    stats = [rec["stats"] for rec in map(record, first_pass) if rec and "stats" in rec]
    growth = [s["determinization_growth_avg"] for s in stats
              if s.get("determinization_growth_avg") is not None]
    return {
        "model.peak_live_states": max((s["peak_live_states"] for s in stats), default=0),
        "model.max_entry_count": max((s["max_entry_count"] for s in stats), default=0),
        "model.max_automaton_states": max((s["max_automaton_states"] for s in stats), default=0),
        "model.determinization_growth_avg": statistics.fmean(growth) if growth else 0.0,
    }


def layer_metrics(layers, first_pass, times):
    counts = {k[len("count."):]: v for k, v in layers.items() if k.startswith("count.")}
    out = {
        "cli.self_s": layers["cli.main.self_s"],
        "keying.from_values.values": counts["from_values.values"],
        "model.bucket_elimination.self_s": layers["model.bucket_elimination.self_s"],
        "factor.combine.pair_nonempty_ratio":
            counts["combine.nonempty"] / counts["combine.pairs"] if counts["combine.pairs"] else 0.0,
        "factor.project.kept_ratio":
            counts["project.entries_kept"] / counts["project.entries_in"]
            if counts["project.entries_in"] else 0.0,
        "trace.instances_per_s": len(times) / sum(times),
    }
    out.update(model_stats(first_pass))
    for name, _ in PER_LAYER:
        if name not in out:
            out[name] = layers[name]
    return out


def run(args):
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "dafbe", "__init__.py")):
        raise BenchError("no dafbe sources under ./src; run from the repository root")
    workload = WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{workload.name}-seed{args.seed}")
    paths, corpus_digest = write_corpus(workload, args.seed, run_dir)
    sys.path.insert(0, SRC)
    os.environ.pop("DAFBE_EPSILON", None)
    import numpy

    import dafbe

    models, refs = references(workload, paths)
    env = child_env()
    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "backend": dafbe.BACKEND, "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "digest": corpus_digest, "instances": len(paths),
        "why": workload.why,
    }
    metrics = {}
    if not args.trace:
        setup, backends = time_setup(env)
        if backends != {dafbe.BACKEND}:
            raise BenchError(f"fresh interpreters picked backend {backends}, set-up picked "
                             f"{dafbe.BACKEND}")
        metrics["setup_s"] = statistics.median(setup)
        info["setup_samples"] = len(setup)

    files = os.path.join(run_dir, "files.txt")
    with open(files, "w", encoding="ascii") as fh:
        fh.write("\n".join(paths) + "\n")
    out = os.path.join(run_dir, f"worker-trace{args.trace}.json")
    remaining = DEADLINE_S - (time.perf_counter() - t_start)
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--files", files,
                        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out],
                       env=env, timeout=remaining, check=True)
    except (subprocess.TimeoutExpired, subprocess.CalledProcessError) as exc:
        raise BenchError(f"measurement child failed: {exc}") from None
    with open(out, encoding="ascii") as fh:
        result = json.load(fh)
    if (result["backend"], result["python"], result["numpy"]) != (
            info["backend"], info["python"], info["numpy"]):
        raise BenchError("measurement child runs a different backend or interpreter")

    rows = result["rows"]
    first_pass = rows[: len(paths)]
    failures = [(row[0], why) for row in rows
                if (why := check_row(row, models, refs)) is not None]
    raw_times = [row[1] for row in rows]
    times = [row[1] * NOMINAL_CALIBRATION_S / row[4] for row in rows]
    info.update(passes=result["passes"], solves=len(rows), elapsed_s=result["elapsed_s"],
                failed_share=len(failures) / len(rows),
                calibration_s_p50=statistics.median(row[4] for row in rows),
                raw_instances_per_s=len(raw_times) / sum(raw_times),
                raw_solve_s_p50=statistics.median(raw_times))
    if args.trace:
        metrics = layer_metrics(result["layers"], first_pass, times)
        info["spans"] = result["spans"]
        info["spans_file"] = os.path.relpath(result["spans_file"], ROOT)
        units = dict(PER_LAYER)
    else:
        metrics.update({
            "instances_per_s": len(rows) / sum(times),
            "solve_s.p50": statistics.median(times),
            "peak_rss_mb": result["peak_rss_mb"],
        })
        info["samples"] = {"instances_per_s": len(rows), "solve_s.p50": len(rows),
                           "peak_rss_mb": 1, "setup_s": info["setup_samples"]}
        units = dict(END_TO_END)
    final = {
        "correct": not failures,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    answers = [rec and {k: rec.get(k) for k in ("status", "optimum", "assignment")}
               for rec in map(record, first_pass)]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    saved = os.path.join(WORK, "results",
                         f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(saved, "w", encoding="ascii") as fh:
        json.dump({"info": info, "result": final, "failures": failures,
                   "answers": answers}, fh, indent=1)
    info["result_file"] = os.path.relpath(saved, ROOT)
    print(json.dumps(info))
    print(json.dumps(final))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure about this long")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
