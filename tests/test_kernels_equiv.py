"""Compiled and pure-Python kernels must return byte-identical parts.

The compiled edition is the one hand-written ``_kernels_cc.cpp``, built
by the session fixture ``compiled_src`` into a temporary copy of the
package (never into ``src/``, where import would then pick it up) and
loaded from there; without g++ or ``Python.h`` every test that needs it
is skipped, and only the Python-edition check of ``split`` runs.  The
compiled edition also checks its inputs: malformed arrays raise
``AutomatonError`` instead of crashing the interpreter.
"""

import glob
import itertools
import os
import random
from array import array

import pytest

from dafbe import generate
from dafbe.automata import Dafsa
from dafbe.errors import AutomatonError
from dafbe.formats import write_wcsp

from conftest import FIXTURES, SRC_PACKAGE, flat, rand_nfa_parts, run_python

DOMS = [(), (1,), (1, 2), (2,), (2, 2), (3, 2), (2, 3, 2), (4, 2, 3), (2, 2, 2, 2)]


def compile_words(both, words, dom):
    """The canonical automaton of ``words``: their shared form with one
    label, whose term marks the accepting state."""
    buf = array("i", [v for w in words for v in w])
    labels = array("i", [0]) * len(words)
    (t_off, t_sym, t_dst, term), _ = both("compile_sorted", buf, len(words), len(dom), dom, labels, -1)
    return t_off, t_sym, t_dst, array("i", [s for s, t in enumerate(term) if t >= 0])


def rand_words(rng, dom):
    n = rng.randrange(0, 14)
    return sorted({tuple(rng.randrange(k) for k in dom) for _ in range(n)})


class TestFuzz:
    def test_all_kernels_byte_identical(self, both):
        rng = random.Random(20260815)
        for trial in range(150):
            dom = rng.choice(DOMS)
            a = compile_words(both, rand_words(rng, dom), dom)
            b = compile_words(both, rand_words(rng, dom), dom)
            na = (len(a[0]) - 1, *map(lambda t: array("i", t), a), 0)
            nb = (len(b[0]) - 1, *map(lambda t: array("i", t), b), 0)
            for mode in (0, 1, 2):
                both("product", mode, *na, *nb, dom)
            both("minimize", *na, dom)
            for lvl in range(len(dom)):
                both("remove_level", *na, dom, lvl)
            both("determinize", *rand_nfa_parts(rng, dom), dom)

    def test_wildcard_levels_and_universal_operands(self, both):
        # the shapes the solver feeds the kernels: lifted factors with
        # all-wildcard levels, next to universal and empty operands
        rng = random.Random(20261018)
        for trial in range(300):
            dom = rng.choice(DOMS)
            ops = []
            for side in range(2):
                roll = rng.random()
                if roll < 0.15:
                    d = Dafsa.universal(dom)
                elif roll < 0.25:
                    d = Dafsa.empty(dom)
                else:
                    keep = [i for i in range(len(dom)) if rng.random() < 0.6]
                    sub = tuple(dom[i] for i in keep)
                    d = Dafsa.from_strings(sub, rand_words(rng, sub))
                    for pos in range(len(dom)):
                        if pos not in keep:
                            d = d.insert_wildcard_level(pos, dom[pos])
                ops.append((d.state_count, d.t_off, d.t_sym, d.t_dst, d.acc, d.start))
            for mode in (0, 1, 2):
                both("product", mode, *ops[0], *ops[1], dom)
            for lvl in range(len(dom)):
                both("remove_level", *ops[0], dom, lvl)


def rand_labelled_entries(rng, dom):
    """Entry parts of a random function on ``dom``: each word gets one of
    up to four labels, or none; a label with no word is left out."""
    n_labels = rng.randrange(1, 5)
    roll = rng.random()
    by_label = [[] for _ in range(n_labels)]
    for word in itertools.product(*(range(k) for k in dom)):
        if roll < 0.15:  # a constant function, one universal entry
            by_label[0].append(word)
        elif rng.random() < 0.8:
            by_label[rng.randrange(n_labels)].append(word)
    return [Dafsa.from_strings(dom, words).parts for words in by_label if words]


class TestSharedForm:
    def test_join_split_project_combine_byte_identical(self, both):
        rng = random.Random(20261101)
        for trial in range(200):
            dom = rng.choice(DOMS)
            entries = rand_labelled_entries(rng, dom)
            shared, labels = both("join", entries, dom)
            assert labels == list(range(len(entries)))
            assert flat(both("split", shared, dom)) == flat(list(enumerate(entries)))
            for lvl in range(len(dom)):
                both("project_entries", shared, dom, lvl)
            # a second operand on a random part of the scope
            in_b = [rng.random() < 0.6 for _ in dom]
            dom_b = tuple(k for k, inside in zip(dom, in_b) if inside)
            other, other_labels = both("join", rand_labelled_entries(rng, dom_b), dom_b)
            na, nb = len(labels), len(other_labels)
            in_a = [True] * len(dom)
            pair_labels = [rng.randrange(6) for _ in range(na * nb)]
            swapped = [pair_labels[i * nb + j] for j in range(nb) for i in range(na)]
            for fold in (False, True) if dom else (False,):
                both("combine_entries", shared, other, dom, in_a, in_b, pair_labels, fold)
                both("combine_entries", other, shared, dom, in_b, in_a, swapped, fold)

    def test_project_last_level_byte_identical(self, both):
        # the only level the solver removes: a walk over single states; tables
        # with pruned rows (label -1), empty functions, one level and
        # wildcard levels from a covering default, domains 1-3
        rng = random.Random(20261107)
        for trial in range(400):
            dom = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 5)))
            words = rand_words(rng, dom)
            digits = array("i", [v for w in words for v in w])
            labels = array("i", [rng.randrange(-1, 4) for _ in words])
            default = rng.choice((-1, -1, rng.randrange(4)))
            shared, _ = both("compile_sorted", digits, len(words), len(dom), dom, labels, default)
            both("project_entries", shared, dom, len(dom) - 1)

    def test_empty_and_scalar_functions(self, both):
        for dom in ((), (2,), (2, 3)):
            empty, labels = both("join", [], dom)
            assert labels == [] and flat(empty) == ((0, 0), (), (), (-1,))
            assert both("split", empty, dom) == []
            for lvl in range(len(dom)):
                assert flat(both("project_entries", empty, dom, lvl)[:2]) == (flat(empty), ())
        scalar, labels = both("join", [Dafsa.universal(()).parts], ())
        assert flat(scalar) == ((0, 0), (), (), (0,)) and labels == [0]
        full, _ = both("join", [Dafsa.universal((2, 3)).parts], (2, 3))
        for fold in (False, True):
            got = both("combine_entries", scalar, full, (2, 3), [0, 0], [1, 1], [5], fold)
            assert got[1] == [5]


def strings_by_label(shared, dom):
    """[(label, strings), ...] of a shared form, read by brute force from
    its root: only the labels the root reaches, ascending."""
    off, sym, dst, term = shared
    found = {}

    def visit(s, prefix):
        if len(prefix) == len(dom):
            if term[s] >= 0:
                found.setdefault(term[s], []).append(prefix)
            return
        for j in range(off[s], off[s + 1]):
            for v in range(dom[len(prefix)]) if sym[j] == -1 else (sym[j],):
                visit(dst[j], prefix + (v,))

    visit(0, ())
    return [(label, sorted(found[label])) for label in sorted(found)]


def gapped_forms(kernel, rng):
    """Shared forms that ``split`` can get wrong, each with its domains:
    the empty function, zero-level constants, labels with gaps, and a
    terminal the root does not reach, which the compiled edition accepts."""
    I = lambda *v: array("i", v)  # noqa: E731
    yield (2,), (I(0, 0), I(), I(), I(-1))
    yield (), (I(0, 0), I(), I(), I(-1))
    yield (), (I(0, 0), I(), I(), I(2))
    # labels 0 and 3 reach the root; 1 and 5 label states it does not reach
    yield (2, 2), (I(0, 2, 3, 4, 4, 4, 4, 4), I(0, 1, -1, 1), I(1, 2, 3, 4), I(-1, -1, -1, 0, 3, 1, 5))
    for trial in range(150):
        dom = rng.choice(DOMS)
        words = [w for w in itertools.product(*(range(k) for k in dom)) if rng.random() < 0.6]
        buf = array("i", [v for w in words for v in w])
        labels = array("i", [rng.randrange(-1, 4) for _ in words])
        (t_off, t_sym, t_dst, term), _ = kernel(
            "compile_sorted", buf, len(words), len(dom), dom, labels, rng.choice((-1, 0, 2))
        )
        gaps = sorted(rng.sample(range(12), 6))
        term = array("i", [gaps[t] if t >= 0 else -1 for t in term])
        t_off = array("i", t_off)
        if rng.random() < 0.5:  # a terminal the root does not reach
            t_off.append(t_off[-1])
            term.append(rng.choice(gaps))
        yield dom, (t_off, t_sym, t_dst, term)


def check_split(kernel, dom, shared):
    got = kernel("split", shared, dom)
    want = [(label, compile_words(kernel, words, dom)) for label, words in strings_by_label(shared, dom)]
    assert flat(got) == flat(want), (dom, flat(shared))


class TestSplit:
    # split lists the labels the root reaches, ascending, each with the
    # canonical automaton of its strings; it used to pass every other test
    # while it listed an unreachable label with an empty automaton
    def test_byte_identical_and_per_label_canonical(self, both):
        for dom, shared in gapped_forms(both, random.Random(20261018)):
            check_split(both, dom, shared)

    def test_python_edition(self):
        import dafbe._kernels_py as KP

        def kernel(name, *args):
            return getattr(KP, name)(*args)

        for dom, shared in gapped_forms(kernel, random.Random(20261019)):
            check_split(kernel, dom, shared)


class TestRegressions:
    # the compiled determinize once marked every subset non-accepting at
    # -O1 and above; these inputs reproduced it
    def test_single_literal_edge(self, both):
        both("determinize", 2, array("i", [0, 1, 1]), array("i", [0]),
             array("i", [1]), array("i", [1]), 0, (1,))

    def test_single_wildcard_edge(self, both):
        both("determinize", 2, array("i", [0, 1, 1]), array("i", [-1]),
             array("i", [1]), array("i", [1]), 0, (1,))

    def test_wildcard_beside_literal_member(self, both):
        both("determinize", 3, array("i", [0, 2, 2, 2]), array("i", [-1, 0]),
             array("i", [1, 2]), array("i", [1, 2]), 0, (1,))

    def test_branching_merge(self, both):
        both("determinize", 8, array("i", [0, 3, 3, 3, 6, 6, 6, 6, 6]),
             array("i", [-1, 0, 0, -1, 0, 1]), array("i", [4, 2, 3, 5, 5, 7]),
             array("i", [7]), 0, (1, 2))

    def test_remove_level_shares_core(self, both):
        args = (3, array("i", [0, 1, 2, 2]), array("i", [0, -1]),
                array("i", [1, 2]), array("i", [2]), 0, (2, 2))
        both("remove_level", *args, 0)
        both("remove_level", *args, 1)


class TestBackendSelection:
    # each in a fresh interpreter on the compiled copy: the backend is
    # chosen once, at import
    def test_default_prefers_compiled(self, compiled_src):
        out = run_python(compiled_src, ["-c", "import dafbe; print(dafbe.BACKEND)"])
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "compiled"

    def test_env_forces_python(self, compiled_src):
        out = run_python(compiled_src, ["-c", "import dafbe; print(dafbe.BACKEND)"], "python")
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "python"

    def test_solve_output_identical_across_backends(self, compiled_src):
        inputs = sorted(glob.glob(os.path.join(FIXTURES, "*")))
        args = ["-m", "dafbe.cli", "solve", "--format", "json-lines", *inputs]
        outs = {}
        for backend in ("python", "compiled"):
            out = run_python(compiled_src, args, backend)
            assert out.returncode == 0, out.stderr
            outs[backend] = out.stdout
        assert outs["python"] == outs["compiled"]
        assert outs["python"].count("\n") == len(inputs)

    def test_solve_output_identical_on_generated_models(self, compiled_src, tmp_path):
        # wide buckets of many-entry factors, where combine_entries and
        # project_entries meet many entries per call
        inputs = []
        for seed in range(6):
            path = tmp_path / f"redundant{seed}.wcsp"
            path.write_text(write_wcsp(generate.high_redundancy_model(random.Random(seed))))
            inputs.append(str(path))
        args = ["-m", "dafbe.cli", "solve", "--format", "json-lines", *inputs]
        outs = {}
        for backend in ("python", "compiled"):
            out = run_python(compiled_src, args, backend)
            assert out.returncode == 0, out.stderr
            outs[backend] = out.stdout
        assert outs["python"] == outs["compiled"]
        assert outs["python"].count("\n") == len(inputs)


# Malformed parts (t_off, t_sym, t_dst, acc) over domains D = (2, 2).
# State 0 has two literal edges and nothing is empty or universal, so no
# operation on them returns before the kernel.
MALFORMED_CASES = r"""
I = lambda *v: array("i", v)
D = (2, 2)
CASES = {
    "destination past the last state": (I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, 99), I(2)),
    "destination far past the last state": (I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, 1 << 30), I(2)),
    "negative destination": (I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, -7), I(2)),
    "accepting id past the last state": (I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, 2), I(5)),
    "negative accepting id": (I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, 2), I(-1)),
    "offsets not starting at 0": (I(1, 2, 3, 3), I(0, 1, 0), I(1, 1, 2), I(2)),
    "decreasing offsets": (I(0, 2, 1, 3), I(0, 1, 0), I(1, 1, 2), I(2)),
    "offsets past the edges": (I(0, 2, 3, 9), I(0, 1, 0), I(1, 1, 2), I(2)),
    "t_dst shorter than t_sym": (I(0, 2, 3, 3), I(0, 1, 0), I(1, 1), I(2)),
    "symbol outside its domain": (I(0, 2, 3, 3), I(0, 1, 5), I(1, 1, 2), I(2)),
    "symbol below the wildcard": (I(0, 2, 3, 3), I(0, 1, -2), I(1, 1, 2), I(2)),
    "edges beyond the last level": (I(0, 2, 3, 4), I(0, 1, 0, 0), I(1, 1, 2, 0), I(2)),
}


def outcome(fn, *args):
    try:
        fn(*args)
    except AutomatonError:
        return "ok"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"
"""

# Runs in a child interpreter on the compiled edition, so that a crash
# shows as a signal instead of killing the test run.  Every case prints
# one line: "ok" when the call raised AutomatonError (or, in the fuzz,
# returned normally from input that happened to stay well-formed).
# ``Dafsa(...)`` rejects the malformed parts itself, so they are wrapped
# unchecked here to reach the kernels.
MALFORMED_SCRIPT = r"""
import random
from array import array

import dafbe
from dafbe._backend import kernels
from dafbe.automata import Dafsa
from dafbe.errors import AutomatonError

assert dafbe.BACKEND == "compiled", dafbe.BACKEND
""" + MALFORMED_CASES + r"""
good = Dafsa.from_strings(D, [(0, 0), (1, 1)])
one = kernels.join([good.parts], D)[0]  # its shared form: one label
BOTH = [1, 1]
# each case's parts read as a shared form take the term below: state 2
# is the one terminal, except where the case breaks acc, whose shared
# twin breaks term instead
TERMS = {
    "accepting id past the last state": I(-1, -1, 0, 0),
    "negative accepting id": I(-1, -1, -2),
}
OPS = {
    "intersect": lambda d, sh: d.intersect(good),
    "union": lambda d, sh: d.union(good),
    "difference": lambda d, sh: d.difference(good),
    "intersect, second operand": lambda d, sh: good.intersect(d),
    "union, second operand": lambda d, sh: good.union(d),
    "difference, second operand": lambda d, sh: good.difference(d),
    "remove_level": lambda d, sh: d.remove_level(0),
    "join": lambda d, sh: kernels.join([good.parts, d.parts], D),
    "split": lambda d, sh: kernels.split(sh, D),
    "project_entries": lambda d, sh: kernels.project_entries(sh, D, 0),
    "combine_entries, A side": lambda d, sh: kernels.combine_entries(sh, one, D, BOTH, BOTH, [0]),
    "combine_entries, B side": lambda d, sh: kernels.combine_entries(one, sh, D, BOTH, BOTH, [0]),
}

for case, parts in CASES.items():
    bad = Dafsa._from_parts(D, parts)
    sh = (*parts[:3], TERMS.get(case, I(-1, -1, 0)))
    for op, fn in OPS.items():
        print(case, "|", op, "|", outcome(fn, bad, sh))

flat = (good.state_count, good.t_off, good.t_sym, good.t_dst, good.acc, 0)
scalar = (I(0, 0), I(), I(), I(0))  # the constant over no levels
# shared forms over D: the root, two level-1 states, and terminals 3 and 4
edges = (I(0, 2, 3, 4, 4, 4), I(0, 1, 0, 1), I(1, 2, 3, 4))
DIRECT = {
    "t_off longer than n + 1": (kernels.minimize, flat[0] - 1, *flat[1:], D),
    "start past the last state": (kernels.determinize, *flat[:5], flat[0], D),
    "level to remove past the last": (kernels.remove_level, *flat, D, 2),
    "product mode 3": (kernels.product, 3, *flat, *flat, D),
    "short compile_sorted buffer": (kernels.compile_sorted, I(0, 1, 1), 2, 2, D, I(0, 0), -1),
    "unsorted compile_sorted rows": (kernels.compile_sorted, I(1, 1, 0, 0), 2, 2, D, I(0, 0), -1),
    "compile_sorted digit outside its domain": (kernels.compile_sorted, I(0, 3), 1, 2, D, I(0), -1),
    "compile_sorted labels too short": (kernels.compile_sorted, I(0, 0, 1, 1), 2, 2, D, I(0), -1),
    "compile_sorted labels too long": (kernels.compile_sorted, I(0, 0, 1, 1), 2, 2, D, I(0, 1, 2), -1),
    "compile_sorted label below -1": (kernels.compile_sorted, I(0, 0, 1, 1), 2, 2, D, I(0, -2), -1),
    "compile_sorted default below -1": (kernels.compile_sorted, I(0, 0, 1, 1), 2, 2, D, I(0, 1), -2),
    "project level past the last": (kernels.project_entries, one, D, 2),
    "entry of three parts": (kernels.join, [good.parts[:3]], D),
    "entry with no states": (kernels.join, [(I(), I(), I(), I())], D),
    "shared form of three parts": (kernels.project_entries, one[:3], D, 0),
    "shared form with no states": (kernels.split, (I(), I(), I(), I()), D),
    "labels too short": (kernels.combine_entries, one, one, D, BOTH, BOTH, []),
    "labels too long": (kernels.combine_entries, one, one, D, BOTH, BOTH, [0, 0]),
    "negative label": (kernels.combine_entries, one, one, D, BOTH, BOTH, [-1]),
    "in_a too short": (kernels.combine_entries, one, one, D, [1], BOTH, [0]),
    "in_b too long": (kernels.combine_entries, one, one, D, BOTH, [1, 1, 1], [0]),
    "in_a flag of 2": (kernels.combine_entries, one, one, D, [2, 1], BOTH, [0]),
    "in_a leaving the entry one level short": (kernels.combine_entries, one, one, D, [1, 0], BOTH, [0]),
    "fold over no levels": (kernels.combine_entries, scalar, scalar, (), [], [], [0], True),
    "term shorter than the states": (kernels.split, (*edges, I(-1, -1, -1, 0)), D),
    "term longer than the states": (kernels.split, (*edges, I(-1, -1, -1, 0, 1, 1)), D),
    "label below -1": (kernels.project_entries, (*edges, I(-1, -3, -1, 0, 1)), D, 0),
    "terminal with edges": (kernels.split, (I(0, 2, 3, 4, 5, 5), I(0, 1, 0, 1, 0), I(1, 2, 3, 4, 4),
                                            I(-1, -1, -1, 0, 1)), D),
    "terminal off the last level":
        (kernels.split, (I(0, 2, 2, 3, 3), I(0, 1, 0), I(1, 2, 3), I(-1, 0, -1, 1)), D),
    "non-terminal leaf": (kernels.project_entries, (*edges, I(-1, -1, -1, 0, -1)), D, 1),
    "wrong labels length for two labels": (kernels.combine_entries, (*edges, I(-1, -1, -1, 0, 1)),
                                           one, D, BOTH, BOTH, [0]),
}
for case, (fn, *args) in DIRECT.items():
    print(case, "| direct |", outcome(fn, *args))

# random corruption of well-formed parts: each call must raise
# AutomatonError or return; the shared forms' corruption comes from a
# second stream, so the corruptions of the automata stay what they were
rng = random.Random(20261018)
shared_rng = random.Random(20261020)
for trial in range(400):
    L = rng.randrange(1, 4)
    dom = tuple(rng.randrange(1, 4) for _ in range(L))
    words = {tuple(rng.randrange(k) for k in dom) for _ in range(rng.randrange(1, 8))}
    base = Dafsa.from_strings(dom, sorted(words))
    parts = [array("i", a) for a in (base.t_off, base.t_sym, base.t_dst, base.acc)]
    for _ in range(rng.randrange(1, 4)):
        part = rng.choice([p for p in parts if p])
        part[rng.randrange(len(part))] = rng.randrange(-3, len(base.t_off) + 3)
    n = len(parts[0]) - 1
    other = Dafsa.from_strings(dom, sorted(words)[:1])
    ob = (other.state_count, other.t_off, other.t_sym, other.t_dst, other.acc, 0)
    args = (n, *parts, 0)
    every = [1] * L
    print(f"fuzz {trial} | product |", outcome(
        lambda: [kernels.product(m, *args, *ob, dom) for m in (0, 1, 2)]
        + [kernels.product(m, *ob, *args, dom) for m in (0, 1, 2)]))
    print(f"fuzz {trial} | minimize |", outcome(kernels.minimize, *args, dom))
    print(f"fuzz {trial} | determinize |", outcome(kernels.determinize, *args, dom))
    print(f"fuzz {trial} | remove_level |",
          outcome(lambda: [kernels.remove_level(*args, dom, lv) for lv in range(L)]))
    print(f"fuzz {trial} | join |", outcome(kernels.join, [other.parts, parts], dom))
    # the base's shared form, broken the same way from a third stream
    sh = [array("i", a) for a in kernels.join([base.parts], dom)[0]]
    for _ in range(shared_rng.randrange(1, 4)):
        part = shared_rng.choice(sh)
        part[shared_rng.randrange(len(part))] = shared_rng.randrange(-3, len(base.t_off) + 3)
    osh = kernels.join([other.parts], dom)[0]
    print(f"fuzz {trial} | split and project_entries |", outcome(
        lambda: [kernels.split(sh, dom)] + [kernels.project_entries(sh, dom, lv) for lv in range(L)]))
    print(f"fuzz {trial} | combine_entries |", outcome(
        lambda: [kernels.combine_entries(sh, osh, dom, every, every, [0]),
                 kernels.combine_entries(osh, sh, dom, every, every, [0])]))
    print(f"fuzz {trial} | combine_entries, folded |", outcome(
        lambda: [kernels.combine_entries(sh, osh, dom, every, every, [0], True),
                 kernels.combine_entries(osh, sh, dom, every, every, [0], True)]))
"""

# Each malformed case through the public constructor, on the Python edition.
PYTHON_CONSTRUCTOR_SCRIPT = r"""
from array import array

import dafbe
from dafbe.automata import Dafsa
from dafbe.errors import AutomatonError

assert dafbe.BACKEND == "python", dafbe.BACKEND
""" + MALFORMED_CASES + r"""
for case, parts in CASES.items():
    print(case, "|", outcome(Dafsa, D, *parts))
"""


class TestMalformedInput:
    def test_compiled_raises_automaton_error(self, compiled_src):
        out = run_python(compiled_src, ["-c", MALFORMED_SCRIPT])
        assert out.returncode == 0, f"exit {out.returncode}: {out.stderr[-2000:]}"
        lines = out.stdout.splitlines()
        assert len(lines) == 12 * 12 + 31 + 400 * 8
        bad = [line for line in lines if not line.endswith(("| ok", "| no error"))]
        assert not bad, "\n".join(bad)
        named = [line for line in lines if not line.startswith("fuzz")]
        assert all(line.endswith("| ok") for line in named), "\n".join(named)

    def test_python_constructor_raises_automaton_error(self):
        out = run_python(os.path.dirname(SRC_PACKAGE), ["-c", PYTHON_CONSTRUCTOR_SCRIPT], "python")
        assert out.returncode == 0, out.stderr[-2000:]
        lines = out.stdout.splitlines()
        assert len(lines) == 12
        assert all(line.endswith("| ok") for line in lines), "\n".join(lines)

    def test_unleveled_edges_raise_automaton_error(self, compiled_kernels):
        # an edge back to the start, and one between two level-1 states,
        # each on a branch that cannot reach acceptance
        I = lambda *v: array("i", v)
        dom = (2, 2)
        universal = (3, I(0, 1, 2, 2), I(-1, -1), I(1, 2), I(2), 0)
        cases = [
            (4, I(0, 2, 3, 4, 4), I(0, 1, 0, 0), I(1, 2, 0, 3), I(3), 0),
            (4, I(0, 2, 3, 4, 4), I(0, 1, 0, 0), I(1, 2, 2, 3), I(3), 0),
        ]
        for bad in cases:
            calls = [
                lambda: compiled_kernels.minimize(*bad, dom),
                lambda: compiled_kernels.determinize(*bad, dom),
                lambda: compiled_kernels.remove_level(*bad, dom, 0),
                lambda: compiled_kernels.product(0, *bad, *universal, dom),
                lambda: compiled_kernels.product(0, *universal, *bad, dom),
            ]
            for call in calls:
                with pytest.raises(AutomatonError, match="does not run from level"):
                    call()

    def test_wrong_buffer_format_is_a_type_error(self, compiled_src):
        code = ("from array import array\n"
                "from dafbe._backend import kernels\n"
                "try:\n"
                "    kernels.minimize(1, array('l', [0, 0]), array('i'), array('i'), array('i'), 0, ())\n"
                "except TypeError as exc:\n"
                "    print('TypeError', exc)\n")
        out = run_python(compiled_src, ["-c", code], "compiled")
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("TypeError")
