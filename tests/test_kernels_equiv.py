"""Compiled and pure-Python kernels must return byte-identical parts.

The compiled edition is the one hand-written ``_kernels_cc.cpp``, built
by the session fixture ``compiled_src`` into a temporary copy of the
package (never into ``src/``, where import would then pick it up) and
loaded from there; without g++ or ``Python.h`` everything here is skipped.
The compiled edition also checks its inputs: malformed arrays raise
``AutomatonError`` instead of crashing the interpreter.
"""

import glob
import os
import random
from array import array

import pytest

import dafbe._kernels_py as KP
from dafbe.automata import Dafsa
from dafbe.errors import AutomatonError

from conftest import FIXTURES, rand_nfa_parts, run_python

DOMS = [(), (1,), (1, 2), (2,), (2, 2), (3, 2), (2, 3, 2), (4, 2, 3), (2, 2, 2, 2)]


def flat(parts):
    return tuple(tuple(x) if isinstance(x, array) else x for x in parts)


@pytest.fixture(scope="module")
def both(compiled_kernels):
    """both(kernel name, *args): runs it in both editions, returns the parts."""
    kc = compiled_kernels

    def check(name, *args):
        rp = flat(getattr(KP, name)(*args))
        rc = flat(getattr(kc, name)(*args))
        assert rp == rc, f"{name} diverged: {rp} vs {rc}"
        return rp

    return check


def compile_words(both, words, dom):
    buf = array("i", [v for w in words for v in w])
    return both("compile_sorted", buf, len(words), len(dom), dom)


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


# Runs in a child interpreter on the compiled edition, so that a crash
# shows as a signal instead of killing the test run.  Every case prints
# one line: "ok" when the call raised AutomatonError (or, in the fuzz,
# returned normally from input that happened to stay well-formed).
MALFORMED_SCRIPT = r"""
import random
from array import array

import dafbe
from dafbe._backend import kernels
from dafbe.automata import Dafsa
from dafbe.errors import AutomatonError

assert dafbe.BACKEND == "compiled", dafbe.BACKEND
I = lambda *v: array("i", v)
D = (2, 2)
good = Dafsa.from_strings(D, [(0, 0), (1, 1)])

# Dafsa(domains, t_off, t_sym, t_dst, acc).  State 0 has two literal
# edges and nothing is empty or universal, so no operation below returns
# before the kernel.
CASES = {
    "destination past the last state": Dafsa(D, I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, 99), I(2)),
    "destination far past the last state":
        Dafsa(D, I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, 1 << 30), I(2)),
    "negative destination": Dafsa(D, I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, -7), I(2)),
    "accepting id past the last state": Dafsa(D, I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, 2), I(5)),
    "negative accepting id": Dafsa(D, I(0, 2, 3, 3), I(0, 1, 0), I(1, 1, 2), I(-1)),
    "offsets not starting at 0": Dafsa(D, I(1, 2, 3, 3), I(0, 1, 0), I(1, 1, 2), I(2)),
    "decreasing offsets": Dafsa(D, I(0, 2, 1, 3), I(0, 1, 0), I(1, 1, 2), I(2)),
    "offsets past the edges": Dafsa(D, I(0, 2, 3, 9), I(0, 1, 0), I(1, 1, 2), I(2)),
    "t_dst shorter than t_sym": Dafsa(D, I(0, 2, 3, 3), I(0, 1, 0), I(1, 1), I(2)),
    "symbol outside its domain": Dafsa(D, I(0, 2, 3, 3), I(0, 1, 5), I(1, 1, 2), I(2)),
    "symbol below the wildcard": Dafsa(D, I(0, 2, 3, 3), I(0, 1, -2), I(1, 1, 2), I(2)),
    "edges beyond the last level": Dafsa(D, I(0, 2, 3, 4), I(0, 1, 0, 0), I(1, 1, 2, 0), I(2)),
}
OPS = {
    "intersect": lambda d: d.intersect(good),
    "union": lambda d: d.union(good),
    "difference": lambda d: d.difference(good),
    "intersect, second operand": lambda d: good.intersect(d),
    "union, second operand": lambda d: good.union(d),
    "difference, second operand": lambda d: good.difference(d),
    "remove_level": lambda d: d.remove_level(0),
}


def outcome(fn, *args):
    try:
        fn(*args)
    except AutomatonError:
        return "ok"
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no error"


for case, bad in CASES.items():
    for op, fn in OPS.items():
        print(case, "|", op, "|", outcome(fn, bad))

flat = (good.state_count, good.t_off, good.t_sym, good.t_dst, good.acc, 0)
DIRECT = {
    "t_off longer than n + 1": (kernels.minimize, flat[0] - 1, *flat[1:], D),
    "start past the last state": (kernels.determinize, *flat[:5], flat[0], D),
    "level to remove past the last": (kernels.remove_level, *flat, D, 2),
    "product mode 3": (kernels.product, 3, *flat, *flat, D),
    "short compile_sorted buffer": (kernels.compile_sorted, I(0, 1, 1), 2, 2, D),
    "unsorted compile_sorted rows": (kernels.compile_sorted, I(1, 1, 0, 0), 2, 2, D),
    "compile_sorted digit outside its domain": (kernels.compile_sorted, I(0, 3), 1, 2, D),
}
for case, (fn, *args) in DIRECT.items():
    print(case, "| direct |", outcome(fn, *args))

# random corruption of well-formed parts: each call must raise
# AutomatonError or return
rng = random.Random(20261018)
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
    print(f"fuzz {trial} | product |", outcome(
        lambda: [kernels.product(m, *args, *ob, dom) for m in (0, 1, 2)]
        + [kernels.product(m, *ob, *args, dom) for m in (0, 1, 2)]))
    print(f"fuzz {trial} | minimize |", outcome(kernels.minimize, *args, dom))
    print(f"fuzz {trial} | determinize |", outcome(kernels.determinize, *args, dom))
    print(f"fuzz {trial} | remove_level |",
          outcome(lambda: [kernels.remove_level(*args, dom, lv) for lv in range(L)]))
"""


class TestMalformedInput:
    def test_compiled_raises_automaton_error(self, compiled_src):
        out = run_python(compiled_src, ["-c", MALFORMED_SCRIPT])
        assert out.returncode == 0, f"exit {out.returncode}: {out.stderr[-2000:]}"
        lines = out.stdout.splitlines()
        assert len(lines) == 12 * 7 + 7 + 400 * 4
        bad = [line for line in lines if not line.endswith(("| ok", "| no error"))]
        assert not bad, "\n".join(bad)
        named = [line for line in lines if not line.startswith("fuzz")]
        assert all(line.endswith("| ok") for line in named), "\n".join(named)

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
