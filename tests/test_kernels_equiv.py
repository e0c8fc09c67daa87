"""Compiled and pure-Python kernels must return byte-identical parts.

The compiled module is optional; everything here is skipped when the
extension did not build.
"""

import os
import random
import subprocess
import sys
from array import array

import pytest

import dafbe._kernels_py as KP

KC = pytest.importorskip("dafbe._kernels_cy")

DOMS = [(2,), (2, 2), (3, 2), (2, 3, 2), (4, 2, 3), (2, 2, 2, 2)]


def flat(parts):
    return tuple(tuple(x) if isinstance(x, array) else x for x in parts)


def both(name, *args):
    rp = flat(getattr(KP, name)(*args))
    rc = flat(getattr(KC, name)(*args))
    assert rp == rc, f"{name} diverged: {rp} vs {rc}"
    return rp


def compile_words(words, dom):
    buf = array("i", [v for w in words for v in w])
    return both("compile_sorted", buf, len(words), len(dom), dom)


def rand_words(rng, dom):
    n = rng.randrange(0, 14)
    return sorted({tuple(rng.randrange(k) for k in dom) for _ in range(n)})


def rand_nfa_parts(rng, dom):
    L = len(dom)
    per = [rng.randrange(1, 4) for _ in range(L + 1)]
    levels, base = [], 0
    for c in per:
        levels.append(list(range(base, base + c)))
        base += c
    esym = {s: set() for s in range(base)}
    for lv in range(L):
        for s in levels[lv]:
            for _ in range(rng.randrange(0, 4)):
                sym = -1 if rng.random() < 0.3 else rng.randrange(dom[lv])
                esym[s].add((sym, rng.choice(levels[lv + 1])))
    t_off, t_sym, t_dst = array("i", [0]), array("i"), array("i")
    for s in range(base):
        for sym, d in sorted(esym[s]):
            t_sym.append(sym)
            t_dst.append(d)
        t_off.append(len(t_sym))
    acc = array("i", sorted(rng.sample(levels[L], rng.randrange(0, len(levels[L]) + 1))))
    return base, t_off, t_sym, t_dst, acc, 0


class TestFuzz:
    def test_all_kernels_byte_identical(self):
        rng = random.Random(20260815)
        for trial in range(150):
            dom = rng.choice(DOMS)
            a = compile_words(rand_words(rng, dom), dom)
            b = compile_words(rand_words(rng, dom), dom)
            na = (len(a[0]) - 1, *map(lambda t: array("i", t), a), 0)
            nb = (len(b[0]) - 1, *map(lambda t: array("i", t), b), 0)
            for mode in (0, 1, 2):
                both("product", mode, *na, *nb, dom)
            both("minimize", *na, dom)
            for lvl in range(len(dom)):
                both("remove_level", *na, dom, lvl)
            both("determinize", *rand_nfa_parts(rng, dom), dom)


class TestRegressions:
    # the compiled determinize once marked every subset non-accepting at
    # -O1 and above; these inputs reproduced it
    def test_single_literal_edge(self):
        both("determinize", 2, array("i", [0, 1, 1]), array("i", [0]),
             array("i", [1]), array("i", [1]), 0, (1,))

    def test_single_wildcard_edge(self):
        both("determinize", 2, array("i", [0, 1, 1]), array("i", [-1]),
             array("i", [1]), array("i", [1]), 0, (1,))

    def test_wildcard_beside_literal_member(self):
        both("determinize", 3, array("i", [0, 2, 2, 2]), array("i", [-1, 0]),
             array("i", [1, 2]), array("i", [1, 2]), 0, (1,))

    def test_branching_merge(self):
        both("determinize", 8, array("i", [0, 3, 3, 3, 6, 6, 6, 6, 6]),
             array("i", [-1, 0, 0, -1, 0, 1]), array("i", [4, 2, 3, 5, 5, 7]),
             array("i", [7]), 0, (1, 2))

    def test_remove_level_shares_core(self):
        args = (3, array("i", [0, 1, 2, 2]), array("i", [0, -1]),
                array("i", [1, 2]), array("i", [2]), 0, (2, 2))
        both("remove_level", *args, 0)
        both("remove_level", *args, 1)


class TestBackendSelection:
    def test_default_prefers_compiled(self):
        import dafbe

        assert dafbe.BACKEND == "compiled"

    def test_env_forces_python(self):
        code = "import dafbe; print(dafbe.BACKEND)"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={"PATH": "/usr/bin:/bin", "DAFBE_KERNELS": "python",
                 "PYTHONPATH": os.environ.get("PYTHONPATH", "")},
            capture_output=True, text=True,
        )
        assert out.stdout.strip() == "python"
