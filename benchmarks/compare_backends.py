#!/usr/bin/env python3
"""Time the pure-Python kernels against the compiled extension.

Both kernel modules are imported side by side and fed the exact same
flat-array inputs, so the numbers compare the implementations, not the
workloads.  Outputs are also cross-checked byte for byte while we are
at it; a mismatch aborts the run.

The ``compile_sorted``, ``combine_entries``, fused ``combine_entries``
and ``project_entries`` rows replay every call the solver makes on the
whole seed-1 corpus of the benchmark's wcsp-planted workload
(``bench/generators.py``), recorded once with the Python edition, so they
time the factor kernels on the solver's own inputs, hundreds of calls a
row, so that host drift does not swamp a row.  ``compile_sorted``
compiles each input table, its rows labelled by value and its ``inf``
rows labelled -1, straight into the shared form; a fused call is a
``combine_entries`` call that folds the last level (``fold``): a bucket's
last combine and its projection in one walk.  The solver names variables
by elimination position, so every fused and ``project_entries`` call it
makes removes the last level.  The "project_entries, level 0" row
replays the ``project_entries`` calls removing level 0 instead, so the
subset walk over contracted states, which the library still runs for any
level but the last, stays timed and cross-checked.  The solver calls neither
``split`` nor ``join``.  The ``split`` row splits every shared form those
calls returned back into entries, as ``DafsaFactor.entries`` does on
demand, and the ``join`` row joins the entries of each compiled table
back into its shared form, as the public ``DafsaFactor(scope, domains,
entries)`` constructor does.  Every row's outputs are compared between
the editions byte for byte.

The end-to-end row re-runs the solver in subprocesses with
DAFBE_KERNELS forced, because the backend is chosen once at import.
The two cold-start rows time whole fresh interpreters the same way: the
median wall time of 9 runs of ``import dafbe.cli`` and of 9 one-process
``dafbe solve`` runs of ``tests/fixtures/hand.wcsp``, launch to exit.

Within every row the two editions' runs alternate (python, compiled,
python, compiled, ...), so host drift during a row reaches both alike
instead of skewing one edition's runs.

Usage:
    python3 benchmarks/compare_backends.py [--repeats N] [--skip-solve]
"""

import argparse
import itertools
import os
import random
import statistics
import subprocess
import sys
import time
from array import array

from dafbe import _kernels_py

try:
    from dafbe import _kernels_cc
except ImportError:
    print("compiled extension not importable; build it first (pip install -e .)")
    sys.exit(1)

from dafbe import factor, formats
from dafbe.automata import Dafsa
from dafbe.model import bucket_elimination

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
from generators import WORKLOADS, corpus  # noqa: E402

COLD_RUNS = 9
HAND_WCSP = os.path.join(ROOT, "tests", "fixtures", "hand.wcsp")


def flat(d):
    return (d.state_count, d.t_off, d.t_sym, d.t_dst, d.acc, d.start)


def plain(out):
    """A kernel output with every array, list and tuple as a tuple."""
    if isinstance(out, (array, tuple, list)):
        return tuple(map(plain, out))
    return out


def rand_words(rng, domains, n):
    return sorted({tuple(rng.randrange(k) for k in domains) for _ in range(n)})


def sorted_digit_buffer(words, length):
    buf = array("i")
    for w in words:
        buf.extend(w)
    return buf


def record_factor_calls():
    """{row name: (kernel name, [args, ...])} of the seed-1 wcsp-planted solves' factor kernels.

    The ``split`` row's calls are (shared, domains) of every shared form
    the other calls returned, and the ``join`` row's calls are (entries,
    domains) of every table ``compile_sorted`` compiled.  The "level 0"
    row is the ``project_entries`` calls with ``lvl`` 0.
    """
    rows = ("compile_sorted", "join", "combine_entries", "combine_entries, fused",
            "project_entries", "split")
    calls = {row: (row.split(",")[0], []) for row in rows}
    splits = calls["split"][1]

    class Recorder:
        def __getattr__(self, name):
            kernel = getattr(_kernels_py, name)
            if name not in calls:
                return kernel

            def record(*args):
                out = kernel(*args)
                row = name
                if name == "compile_sorted":
                    domains = args[3]
                    entries = [parts for _, parts in _kernels_py.split(out[0], domains)]
                    calls["join"][1].append((entries, domains))
                elif name == "project_entries":
                    domains = args[1][:-1]  # the solver removes only last levels
                elif len(args) > 6:  # project's fold
                    domains = args[2][:-1]
                    row = "combine_entries, fused"
                else:
                    domains = args[2]
                calls[row][1].append(args)
                splits.append((out[0], domains))
                return out

            return record

    saved = factor.kernels
    factor.kernels = Recorder()
    try:
        for _, text in corpus(WORKLOADS["wcsp-planted"], 1):
            bucket_elimination(formats.parse_wcsp(text))
    finally:
        factor.kernels = saved
    calls["project_entries, level 0"] = ("project_entries",
                                         [(*args[:-1], 0) for args in calls["project_entries"][1]])
    return calls


def interleaved(fns, repeats):
    """[[(seconds, output), ...] per function]: ``repeats`` runs of each, alternating."""
    runs = [[] for _ in fns]
    for _ in range(repeats):
        for fn, out in zip(fns, runs):
            t0 = time.perf_counter()
            got = fn()
            out.append((time.perf_counter() - t0, got))
    return runs


def cold_start(argv):
    """Median wall time of ``COLD_RUNS`` fresh interpreters running ``argv``, per edition."""

    def launch(backend):
        env = {**os.environ, "DAFBE_KERNELS": backend}
        return lambda: subprocess.run([sys.executable, *argv], env=env, capture_output=True, check=True)

    runs = interleaved([launch("python"), launch("compiled")], COLD_RUNS)
    return [statistics.median(t for t, _ in r) for r in runs]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5, help="keep the best of N runs")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--skip-solve", action="store_true",
                    help="kernel microbenchmarks only, no subprocess solve")
    args = ap.parse_args()
    rng = random.Random(args.seed)

    length = 10
    domains = tuple([3] * length)
    words_a = rand_words(rng, domains, 4000)
    words_b = rand_words(rng, domains, 4000)
    a = Dafsa.from_strings(domains, words_a)
    b = Dafsa.from_strings(domains, words_b)

    full = sorted(itertools.product(*[range(2)] * 14))
    full_buf = sorted_digit_buffer(full, 14)
    buf_a = sorted_digit_buffer(words_a, length)

    rows = []

    def workload(name, call):
        py, cc = interleaved([lambda: call(_kernels_py), lambda: call(_kernels_cc)], args.repeats)
        if plain(py[-1][1]) != plain(cc[-1][1]):
            print(f"OUTPUT MISMATCH in {name}; not publishing numbers for broken code")
            sys.exit(2)
        rows.append((name, min(t for t, _ in py), min(t for t, _ in cc)))

    # one label and no default, as Dafsa.from_strings compiles
    workload(
        f"compile {len(words_a)} sorted strings (len {length})",
        lambda K: K.compile_sorted(buf_a, len(words_a), length, domains, array("i", [0]) * len(words_a), -1),
    )
    workload(
        "compile 2^14 binary strings",
        lambda K: K.compile_sorted(full_buf, len(full), 14, (2,) * 14, array("i", [0]) * len(full), -1),
    )
    for mode, label in ((0, "intersect"), (1, "union"), (2, "difference")):
        workload(
            f"{label} 4k x 4k automata",
            lambda K, m=mode: tuple(K.product(m, *flat(a), *flat(b), domains)),
        )
    workload(
        "minimize (already minimal)",
        lambda K: tuple(K.minimize(*flat(a), domains)),
    )
    for lvl in (0, length // 2, length - 1):
        workload(
            f"remove level {lvl} (determinize)",
            lambda K, l=lvl: tuple(K.remove_level(*flat(a), domains, l)),
        )

    for row, (name, recorded) in record_factor_calls().items():
        workload(
            f"{row}, {len(recorded)} calls of the wcsp-planted corpus",
            lambda K, n=name, r=recorded: [getattr(K, n)(*a) for a in r],
        )

    if not args.skip_solve:
        probe = (
            "import time, random\n"
            "from dafbe import generate\n"
            "from dafbe.model import bucket_elimination\n"
            "from dafbe._backend import BACKEND\n"
            "m = generate.model_in_width_band(0, 13, 17)\n"
            "t0 = time.perf_counter()\n"
            "r = bucket_elimination(m)\n"
            "print(BACKEND, time.perf_counter() - t0, r.optimum)\n"
        )

        def solve(backend):
            def run():
                out = subprocess.run(
                    [sys.executable, "-c", probe],
                    capture_output=True, text=True, check=True,
                    env={**os.environ, "DAFBE_KERNELS": backend},
                ).stdout.split()
                assert out[0] == backend, out
                return float(out[1]), out[2]

            return run

        # the probe's own solve time, not the subprocess's wall time
        py, cc = interleaved([solve("python"), solve("compiled")], max(1, args.repeats // 2))
        if py[-1][1][1] != cc[-1][1][1]:
            print("OUTPUT MISMATCH in end-to-end solve")
            sys.exit(2)
        rows.append(("end-to-end solve (w*~13, n=30)",
                     min(t for _, (t, _) in py), min(t for _, (t, _) in cc)))
        for name, argv in (
            ("import dafbe.cli", ["-c", "import dafbe.cli"]),
            ("dafbe solve hand.wcsp", ["-m", "dafbe.cli", "solve", HAND_WCSP]),
        ):
            rows.append((f"cold start: {name}, median of {COLD_RUNS}", *cold_start(argv)))

    width = max(len(r[0]) for r in rows)
    print(f"{'workload'.ljust(width)}  {'python':>10}  {'compiled':>10}  {'speedup':>8}")
    for name, t_py, t_cc in rows:
        print(f"{name.ljust(width)}  {t_py:>9.4f}s  {t_cc:>9.4f}s  {t_py / t_cc:>7.1f}x")


if __name__ == "__main__":
    main()
