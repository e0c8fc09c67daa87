import itertools
import os
import random
import shutil
import subprocess
import sys
import sysconfig

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
    (and the benchmark) would pick it up.  Skips without g++ or ``Python.h``.
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
        [cxx, "-std=c++17", "-O2", "-shared", "-fPIC", f"-I{include}", str(source), "-o", str(target)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        pytest.fail(f"g++ could not build {source}:\n{proc.stderr[-3000:]}")
    return str(root)


def run_python(pythonpath, args, kernels=None):
    """Run ``python args`` with only ``pythonpath`` on the path, DAFBE_KERNELS set if given."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": pythonpath}
    if kernels is not None:
        env["DAFBE_KERNELS"] = kernels
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
