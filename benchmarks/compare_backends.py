#!/usr/bin/env python3
"""Time the pure-Python kernels against the compiled extension, or
against the pure-Python kernels of another source tree.

Both kernel modules are loaded side by side in one process and fed the
exact same flat-array inputs, so the numbers compare the
implementations, not the workloads.  Outputs are also cross-checked byte
for byte while we are at it; a mismatch aborts the run.

With ``--against TREE`` the two editions are ``TREE``'s
``src/dafbe/_kernels_py.py``, loaded by path under a module name of its
own, and this tree's ``_kernels_py``; no installed extension is needed.
Each row then prints the base tree's time, this tree's time and their
ratio, base over this, so a ratio above 1 means this tree is faster.
When g++ and ``Python.h`` are present, both trees' ``_kernels_cc.cpp``
are also built into a temporary directory, as ``tests/conftest.py``
builds them, each loaded under a module name of its own, and every row
prints the compiled editions' times and ratio beside the Python ones;
each call then runs on all four editions in turn.  The subprocess rows
are left out, because they cannot run two trees in one process.

The set-algebra rows run on two random 4k-string automata.  The
``determinize`` row takes an NFA whose start state has the root edges of
both, so its subsets have two members and it builds their union.

The ``compile_sorted``, ``combine_entries``, fused ``combine_entries``
and one-factor fold rows replay every call the solver makes on the
whole seed-1 corpus of one of the benchmark's workloads
(``bench/generators.py``; ``--workload``, wcsp-planted by default),
recorded once with the Python edition, so they time the factor kernels
on the solver's own inputs, hundreds of calls a row, so that host drift
does not swamp a row.  ``compile_sorted``
compiles each input table, its rows labelled by value and its ``inf``
rows labelled -1, straight into the shared form; a fused call is a
``combine_entries`` call that folds the last level (``fold``): a bucket's
last combine and its projection in one walk.  A one-factor fold is a
fold whose second operand is the constant ``SCALAR``: the projection of
a bucket that holds one factor.  The solver names variables by
elimination position, so every fold it makes removes the last level.
A fold whose result is a constant, every string at one label, goes to
a row of its own, "fused, constant" or "one-factor fold, constant":
its walk returns the constant's wildcard chain without building a
level, so those rows time that exit apart from the folds that build.
A replay row whose corpus makes no call, as the constant rows on
wcsp-planted, is left out.
The "project_entries, level 0" row removes level 0 of each one-factor
fold's first operand instead, so the subset walk over contracted states,
which the library still runs for any level but the last, stays timed
and cross-checked.  The solver calls neither ``project_entries``, nor
``split``, nor ``join``.  The ``split`` row splits every shared form those
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

A kernel row replays its calls one at a time, each call on both
editions in turn, whichever ran second on the last call running first
on the next, and ``--repeats`` times over; a row's time is the sum over
its calls of each call's best time.  So host drift reaches both editions
alike instead of skewing one edition's runs, and a slow moment costs
only the calls it hits.  The subprocess rows alternate whole runs
(python, compiled, python, ...) and keep the best, or the median.

Usage:
    python3 benchmarks/compare_backends.py [--repeats N] [--skip-solve] [--workload NAME]
    python3 benchmarks/compare_backends.py --against TREE [--repeats N] [--workload NAME]
"""

import argparse
import importlib.util
import itertools
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time
from array import array

from dafbe import _kernels_py, factor, formats
from dafbe.automata import SCALAR, Dafsa
from dafbe.model import bucket_elimination

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
from generators import WORKLOADS, corpus  # noqa: E402

COLD_RUNS = 9
HAND_WCSP = os.path.join(ROOT, "tests", "fixtures", "hand.wcsp")


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


def union_nfa(a, b):
    """(parts, start) of an NFA: the states of ``a`` and ``b`` side by side
    and a start state that takes the root edges of both.  Determinizing it
    gives their union through subsets of up to two members, so it stays
    bounded, and one member's wildcard can sit beside another's
    literals."""
    n_a = a.state_count
    root_a, root_b = a.t_off[1], b.t_off[1]
    start = sorted([*zip(a.t_sym[:root_a], a.t_dst[:root_a]),
                    *zip(b.t_sym[:root_b], (n_a + d for d in b.t_dst[:root_b]))])
    t_off = a.t_off + array("i", (len(a.t_sym) + o for o in b.t_off[1:]))
    t_sym = a.t_sym + b.t_sym + array("i", (v for v, _ in start))
    t_dst = a.t_dst + array("i", (n_a + d for d in b.t_dst)) + array("i", (d for _, d in start))
    t_off.append(len(t_sym))
    acc = a.acc + array("i", (n_a + s for s in b.acc))
    return (t_off, t_sym, t_dst, acc), n_a + b.state_count


def record_factor_calls(workload):
    """{row name: (kernel name, [args, ...])} of the factor kernels of the
    solves of ``workload``'s seed-1 corpus.

    The ``split`` row's calls are (shared, domains) of every shared form
    the other calls returned, and the ``join`` row's calls are (entries,
    domains) of every table ``compile_sorted`` compiled.  A fold whose
    result is a constant (one label, wildcard edges only) goes to its
    row's ", constant" twin.  The "level 0" row is ``project_entries`` of
    each one-factor fold's first operand, with ``lvl`` 0.
    """
    folds = ("combine_entries, fused", "combine_entries, one-factor fold")
    rows = ("compile_sorted", "join", "combine_entries", *folds, *(f"{row}, constant" for row in folds), "split")
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
                elif len(args) > 6:  # project's fold, of the last level
                    domains = args[2][:-1]
                    row = folds[args[1] is SCALAR]
                    if len(out[1]) == 1 and set(out[0][1]) <= {-1}:  # the wildcard chain
                        row += ", constant"
                else:
                    domains = args[2]
                calls[row][1].append(args)
                splits.append((out[0], domains))
                return out

            return record

    saved = factor.kernels
    factor.kernels = Recorder()
    try:
        parse = {".wcsp": formats.parse_wcsp, ".uai": formats.parse_uai}[WORKLOADS[workload].suffix]
        for _, text in corpus(WORKLOADS[workload], 1):
            bucket_elimination(parse(text))
    finally:
        factor.kernels = saved
    one_factor = calls[folds[1]][1] + calls[f"{folds[1]}, constant"][1]
    calls["project_entries, level 0"] = ("project_entries", [(args[0], args[2], 0) for args in one_factor])
    return calls


def load_tree_kernels(tree):
    """``tree``'s ``src/dafbe/_kernels_py.py``, loaded by path as its own module."""
    path = os.path.join(tree, "src", "dafbe", "_kernels_py.py")
    spec = importlib.util.spec_from_file_location("_kernels_py_against", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def build_tree_kernels(trees):
    """[the compiled kernel module of each tree], or [] without g++ or ``Python.h``.

    Each tree's ``src/dafbe/_kernels_cc.cpp`` is built with the flags of
    ``tests/conftest.py`` into a temporary directory, which is removed
    once the modules are loaded, and loaded as ``tree<i>._kernels_cc``:
    the last part of the name picks the init function, the package
    part keeps the builds apart.
    """
    include = sysconfig.get_paths()["include"]
    cxx = shutil.which("g++")
    if cxx is None or not os.path.exists(os.path.join(include, "Python.h")):
        return []
    modules = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, tree in enumerate(trees):
            source = os.path.join(tree, "src", "dafbe", "_kernels_cc.cpp")
            target = os.path.join(tmp, f"tree{i}" + sysconfig.get_config_var("EXT_SUFFIX"))
            subprocess.run([cxx, "-std=c++17", "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
                            f"-I{include}", source, "-o", target], check=True)
            name = f"tree{i}._kernels_cc"
            spec = importlib.util.spec_from_file_location(name, target)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)  # the extension registers itself as it loads
            modules.append(module)
    return modules


def replay(editions, kernel, calls, repeats):
    """[seconds per edition]: each call's best time, summed over ``calls``.

    Every call runs on each edition in turn, the order flipping from one
    call to the next, ``repeats`` times over.  The first run of each call
    compares the editions' outputs; a mismatch returns None.
    """
    fns = [getattr(module, kernel) for module in editions]
    best = [[math.inf] * len(calls) for _ in fns]
    turn = 0
    for repeat in range(repeats):
        for i, args in enumerate(calls):
            outs = [None] * len(fns)
            for e in (range(len(fns)) if turn % 2 == 0 else reversed(range(len(fns)))):
                t0 = time.perf_counter()
                outs[e] = fns[e](*args)
                best[e][i] = min(best[e][i], time.perf_counter() - t0)
            turn += 1
            if repeat == 0 and any(plain(out) != plain(outs[0]) for out in outs[1:]):
                return None
    return [sum(times) for times in best]


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
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="wcsp-planted",
                    help="the benchmark workload whose seed-1 solves the factor-kernel rows replay")
    ap.add_argument("--against", metavar="TREE",
                    help="time this tree's Python kernels against TREE's, not against the compiled ones")
    args = ap.parse_args()
    rng = random.Random(args.seed)

    if args.against:
        editions = [load_tree_kernels(args.against), _kernels_py]
        header = [("base", "this tree", "base/this")]
        compiled = build_tree_kernels([args.against, ROOT])
        if compiled:
            editions += compiled
            header.append(("base cc", "this cc", "base/this cc"))
    else:
        try:
            from dafbe import _kernels_cc
        except ImportError:
            print("compiled extension not importable; build it first (pip install -e .)")
            sys.exit(1)
        editions = [_kernels_py, _kernels_cc]
        header = [("python", "compiled", "speedup")]

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

    def workload(name, kernel, calls):
        times = replay(editions, kernel, calls, args.repeats)
        if times is None:
            print(f"OUTPUT MISMATCH in {name}; not publishing numbers for broken code")
            sys.exit(2)
        rows.append((name, *times))

    # one label and no default, as Dafsa.from_strings compiles
    workload(
        f"compile {len(words_a)} sorted strings (len {length})", "compile_sorted",
        [(buf_a, len(words_a), length, domains, array("i", [0]) * len(words_a), -1)],
    )
    workload(
        "compile 2^14 binary strings", "compile_sorted",
        [(full_buf, len(full), 14, (2,) * 14, array("i", [0]) * len(full), -1)],
    )
    for mode, label in ((0, "intersect"), (1, "union"), (2, "difference")):
        workload(f"{label} 4k x 4k automata", "product", [(mode, a.parts, b.parts, domains)])
    workload("minimize (already minimal)", "minimize", [(a.parts, 0, domains)])
    nfa, start = union_nfa(a, b)
    workload("determinize the union NFA of the 4k automata", "determinize", [(nfa, start, domains)])
    for lvl in (0, length // 2, length - 1):
        workload(f"remove level {lvl} (determinize)", "remove_level", [(a.parts, domains, lvl)])

    for row, (name, recorded) in record_factor_calls(args.workload).items():
        if recorded:  # a replay of no calls times nothing
            workload(f"{row}, {len(recorded)} calls of the {args.workload} corpus", name, recorded)

    if not args.skip_solve and not args.against:
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
    print("workload".ljust(width) + "".join(f"  {h0:>10}  {h1:>10}  {h2:>12}" for h0, h1, h2 in header))
    for name, *times in rows:
        pairs = zip(times[::2], times[1::2])
        print(name.ljust(width) + "".join(f"  {t_0:>9.4f}s  {t_1:>9.4f}s  {t_0 / t_1:>11.2f}x" for t_0, t_1 in pairs))


if __name__ == "__main__":
    main()
