import importlib.util
import itertools
import os
import random
import shutil
import subprocess
import sys
import sysconfig

from array import array

import numpy as np
import pytest

from dafbe.automata import Dafsa
from dafbe.factor import DafsaFactor, TabularFactor
from dafbe.model import GraphicalModel, Task

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
SRC_PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "dafbe")


def fixture_path(name):
    return os.path.join(FIXTURES, name)


def rand_dafsa(rng, domains, max_strings=12):
    """Random minimal automaton built from a random string set."""
    n = rng.randrange(0, max_strings + 1)
    words = {tuple(rng.randrange(k) for k in domains) for _ in range(n)}
    return Dafsa.from_strings(domains, sorted(words))


def rand_word(rng, domains):
    return tuple(rng.randrange(k) for k in domains)


def demo_table():
    """Three binary variables, eight rows, four distinct values.

    Values chosen so each value class is a different shape: one class
    needs a branching automaton, one is a single string, two are pairs.
    """
    values = np.array([1.0, 1.0, 2.0, 1.0, 3.0, 7.0, 3.0, 7.0])
    return TabularFactor(scope=(0, 1, 2), domains=(2, 2, 2), values=values)


def demo_factor(eps=1e-10):
    return DafsaFactor.from_table(demo_table(), eps=eps)


def table_from_feed(scope, domains, feed):
    vals = np.array([float(feed(a)) for a in itertools.product(*(range(k) for k in domains))])
    return TabularFactor(scope=tuple(scope), domains=tuple(domains), values=vals)


def ignoring_table(scope, domains, support, draw):
    """A dense table over ``scope`` whose values read only the variables
    in ``support``: ``draw()`` gives the value of each of their assignments."""
    at = {}
    values = []
    for word in itertools.product(*(range(k) for k in domains)):
        key = tuple(v for var, v in zip(scope, word) if var in support)
        if key not in at:
            at[key] = draw()
        values.append(at[key])
    return TabularFactor(tuple(scope), tuple(domains), np.array(values, dtype=float))


def micro_model(seed, task=None):
    from dafbe.generate import random_micro_model

    rng = random.Random(seed)
    if task is None:
        task = Task.MAP if seed % 2 == 0 else Task.WCSP
    return random_micro_model(rng, task)


@pytest.fixture
def rng():
    return random.Random(0xDAF5A)


@pytest.fixture(scope="session")
def compiled_src(tmp_path_factory):
    """A copy of ``src/dafbe`` with ``_kernels_cc.cpp`` built into it.

    Returns the directory to put on ``PYTHONPATH``.  The extension is built
    once per session, into the copy and never into ``src/``, where import
    (and the benchmark) would pick it up.  Warnings are errors, so a
    non-template helper that a change leaves unused fails the build.  Skips
    without g++ or ``Python.h``.
    """
    include = sysconfig.get_paths()["include"]
    cxx = shutil.which("g++")
    if cxx is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("building dafbe._kernels_cc needs g++ and Python.h")
    root = tmp_path_factory.mktemp("compiled_src")
    package = root / "dafbe"
    shutil.copytree(SRC_PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    source = package / "_kernels_cc.cpp"
    target = package / ("_kernels_cc" + sysconfig.get_config_var("EXT_SUFFIX"))
    proc = subprocess.run(
        [cxx, "-std=c++17", "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         f"-I{include}", str(source), "-o", str(target)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        pytest.fail(f"g++ could not build {source}:\n{proc.stderr[-3000:]}")
    return str(root)


@pytest.fixture(scope="session")
def compiled_kernels(compiled_src):
    """The compiled kernel module of ``compiled_src``, loaded once."""
    name = "dafbe._kernels_cc"
    path = os.path.join(compiled_src, "dafbe", "_kernels_cc" + sysconfig.get_config_var("EXT_SUFFIX"))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # the extension registers itself in sys.modules as it loads; take it
    # out, so that no other import in the session finds this build
    sys.modules.pop(name, None)
    return module


def flat(out):
    """A kernel result with every array turned into a tuple, for comparing."""
    if isinstance(out, array):
        return tuple(out)
    if isinstance(out, (tuple, list)):
        return tuple(map(flat, out))
    return out


@pytest.fixture(scope="session")
def both(compiled_kernels):
    """both(kernel name, *args): runs it in both editions, asserts the
    results are byte-identical and returns the pure-Python edition's."""
    import dafbe._kernels_py as KP

    def check(name, *args):
        rp = getattr(KP, name)(*args)
        rc = getattr(compiled_kernels, name)(*args)
        assert flat(rp) == flat(rc), f"{name} diverged: {flat(rp)} vs {flat(rc)}"
        return rp

    return check


@pytest.fixture(params=["python", "compiled"])
def kernels(request):
    """Each kernel edition in turn; the Python one needs no compiler."""
    if request.param == "python":
        import dafbe._kernels_py as KP

        return KP
    return request.getfixturevalue("compiled_kernels")


def rand_nfa_parts(rng, dom):
    """Random leveled NFA: 1-3 states per level, up to 3 edges per state.

    Returns ``(parts, start)``, parts ``(t_off, t_sym, t_dst, acc)``.
    Symbols repeat and wildcards sit beside literals; accepting states are
    a random subset of the last level.
    """
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
    return (t_off, t_sym, t_dst, acc), 0


def run_python(pythonpath, args, kernels=None):
    """Run ``python args`` with only ``pythonpath`` on the path, DAFBE_KERNELS set if given.

    ``PYTHONDONTWRITEBYTECODE`` passes through when it is set, so a test
    run that asks for no bytecode cache leaves none in the checkout.
    """
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": pythonpath}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    if kernels is not None:
        env["DAFBE_KERNELS"] = kernels
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
