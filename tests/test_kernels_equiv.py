"""Compiled and pure-Python kernels must return byte-identical parts.

The compiled edition is used as installed when ``dafbe._kernels_cy``
imports.  Otherwise the committed ``_kernels_cy.cpp`` is built with g++
into pytest's temporary directory (never into ``src/``, where import
would then pick it up) and loaded from there; without g++ or
``Python.h`` everything here is skipped.
"""

import importlib
import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from array import array

import pytest

import dafbe._kernels_py as KP
from dafbe.automata import Dafsa

DOMS = [(), (1,), (1, 2), (2,), (2, 2), (3, 2), (2, 3, 2), (4, 2, 3), (2, 2, 2, 2)]

def _build_compiled(tmp_dir):
    source = os.path.join(os.path.dirname(KP.__file__), "_kernels_cy.cpp")
    include = sysconfig.get_paths()["include"]
    cxx = shutil.which("g++")
    if cxx is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("dafbe._kernels_cy is not built, and building it needs g++ and Python.h")
    target = os.path.join(tmp_dir, "_kernels_cy" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [cxx, "-O2", "-shared", "-fPIC", f"-I{include}", source, "-o", target],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        pytest.fail(f"g++ could not build {source}:\n{proc.stderr[-3000:]}")
    spec = importlib.util.spec_from_file_location("dafbe._kernels_cy", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension registers itself in sys.modules as it loads; take it
    # out, so that no other import in the session finds this build
    sys.modules.pop(spec.name, None)
    return module


def flat(parts):
    return tuple(tuple(x) if isinstance(x, array) else x for x in parts)


@pytest.fixture(scope="module")
def both(tmp_path_factory):
    """both(kernel name, *args): runs it in both editions, returns the parts."""
    try:
        kc = importlib.import_module("dafbe._kernels_cy")
    except ImportError:
        kc = _build_compiled(str(tmp_path_factory.mktemp("kernels_cy")))

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
    @pytest.fixture(autouse=True)
    def _installed_only(self):
        if importlib.util.find_spec("dafbe._kernels_cy") is None:
            pytest.skip("dafbe._kernels_cy is not installed (the fuzz above used a temporary "
                        "build), so import has no compiled backend to select")

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
