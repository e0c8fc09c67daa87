"""WCSP functions kept as default + exceptions from parse to compilation."""

import itertools
import json
import math
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dafbe.errors import BudgetExceeded, FactorError, FormatError
from dafbe.factor import DafsaFactor, SparseFactor, TabularFactor
from dafbe.formats import parse_path, parse_wcsp, write_wcsp
from dafbe.model import GraphicalModel, Task
from dafbe.oracle import OracleBudget, brute_force, tabular_be

from conftest import fixture_path

UPPER = 50
# near-duplicates within the default epsilon (1e-10), including a chain
# whose ends are more than epsilon apart
COSTS = [0.0, 1.0, 1.0 + 4e-11, 1.0 + 8e-11, 1.0 + 1.2e-10, 2.5, 3.0, 3.0 + 1e-12, UPPER, UPPER + 7]


def wcsp_text(domains, functions, upper=UPPER):
    """functions: [(raw scope, default, [(tuple in raw-scope order, cost)])]."""
    lines = [f"t {len(domains)} {max(domains, default=0)} {len(functions)} {upper}",
             " ".join(map(str, domains))]
    for scope, default, exceptions in functions:
        lines.append(" ".join(map(str, [len(scope), *scope, repr(default), len(exceptions)])))
        for word, cost in exceptions:
            lines.append(" ".join(map(str, [*word, repr(cost)])))
    return "\n".join(lines) + "\n"


def reference_table(domains, scope, default, exceptions, upper=UPPER):
    """Dense sorted-scope table, built cell by cell from the file's meaning."""
    order = sorted(scope)
    last = {}
    for word, cost in exceptions:
        last[tuple(word)] = cost
    values = []
    for cell in itertools.product(*(range(domains[v]) for v in order)):
        at = dict(zip(order, cell))
        cost = last.get(tuple(at[v] for v in scope), default)
        values.append(math.inf if cost >= upper else cost)
    return np.asarray(values)


def random_function(rng, domains):
    arity = rng.randint(0, min(4, len(domains)))
    scope = rng.sample(range(len(domains)), arity)
    cells = list(itertools.product(*(range(domains[v]) for v in scope)))
    mode = rng.random()
    if mode < 0.15:
        words = list(cells)  # every cell an exception
        rng.shuffle(words)
    else:
        # drawn with replacement: duplicate tuples resolve last-wins
        words = [rng.choice(cells) for _ in range(rng.randint(0, len(cells) + 2))]
    return scope, rng.choice(COSTS), [(w, rng.choice(COSTS)) for w in words]


def random_model_text(rng):
    domains = [rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
    functions = [random_function(rng, domains) for _ in range(rng.randint(1, 4))]
    return domains, functions


def entry_bytes(factor):
    # repr tells -0.0 from 0.0, which compare equal
    return [(repr(v), d.domains, d.t_off.tobytes(), d.t_sym.tobytes(), d.t_dst.tobytes(),
             d.acc.tobytes()) for v, d in factor.entries]


FIXED_CASES = [
    # duplicate tuples, the last one winning
    ([2, 3], [([1, 0], 1.0, [((2, 1), 0.0), ((2, 1), 3.0), ((0, 0), 2.5)])]),
    # an exception equal to the default
    ([3, 3], [([0, 1], 2.5, [((0, 0), 2.5), ((1, 2), 0.0)])]),
    # an inf default (at and above the bound)
    ([2, 2], [([0, 1], float(UPPER), [((0, 1), 1.0)]),
              ([1], float(UPPER + 7), [((0,), 0.0)])]),
    # every cell an exception, so the default covers nothing
    ([2, 2], [([1, 0], 9.0, [((a, b), float(a + b)) for a in range(2) for b in range(2)])]),
    # zero arity, with and without its single exception
    ([2], [([], 4.0, []), ([], 4.0, [((), 1.0)])]),
    # domains above 2 and near-duplicate costs within epsilon
    ([4, 3, 2], [([2, 0, 1], 1.0, [((1, 3, 2), 1.0 + 4e-11), ((0, 2, 1), 1.0 + 1.2e-10),
                                    ((1, 1, 1), 3.0 + 1e-12)])]),
    # a -0.0 default beside a 0.0 exception: zero keys as +0.0 on both paths
    ([2, 2], [([0, 1], -0.0, [((1, 1), 0.0)])]),
]


def model_cases():
    rng = random.Random(0x5A55)
    return FIXED_CASES + [random_model_text(rng) for _ in range(150)]


class TestParse:
    def test_functions_are_sparse(self):
        m = parse_path(fixture_path("queens4.wcsp"))
        assert all(isinstance(f, SparseFactor) for f in m.factors)

    @pytest.mark.parametrize("case", model_cases()[:60])
    def test_dense_view_matches_file(self, case):
        domains, functions = case
        m = parse_wcsp(wcsp_text(domains, functions))
        for f, (scope, default, exceptions) in zip(m.factors, functions):
            assert f.scope == tuple(sorted(scope))
            ref = reference_table(domains, scope, default, exceptions)
            assert np.array_equal(f.values, ref)
            for cell in itertools.product(*(range(k) for k in domains)):
                rank = np.ravel_multi_index([cell[v] for v in f.scope], f.domains) if f.scope else 0
                assert f.value_of(cell) == ref[rank]

    def test_negative_check_runs_on_resolved_values(self):
        # a negative cost overwritten later, and a negative default covering no cell
        parse_wcsp(wcsp_text([2], [([0], 1.0, [((0,), -1.0), ((0,), 2.0)])]))
        parse_wcsp(wcsp_text([2], [([0], -1.0, [((0,), 1.0), ((1,), 2.0)])]))
        with pytest.raises(FormatError, match="negative cost"):
            parse_wcsp(wcsp_text([2], [([0], -1.0, [((0,), 1.0)])]))

    def test_parse_path_dialect_overrides_extension(self, tmp_path):
        p = tmp_path / "named.uai"
        p.write_text(wcsp_text([2], [([0], 1.0, [])]), encoding="ascii")
        assert parse_path(str(p), dialect="wcsp").task is Task.WCSP
        with pytest.raises(FormatError):
            parse_path(str(p))

    def test_validation(self):
        with pytest.raises(FactorError):
            SparseFactor((1, 0), (2, 2), 0.0, {})
        with pytest.raises(FactorError):
            SparseFactor((0,), (2,), 0.0, {(2,): 1.0})
        with pytest.raises(FactorError):
            SparseFactor((0,), (2,), 0.0, {(0, 0): 1.0})
        with pytest.raises(FactorError):
            SparseFactor((0,), (2,), math.nan, {})


class TestSparseCompile:
    def test_entries_match_dense_compile(self):
        for domains, functions in model_cases():
            for f in parse_wcsp(wcsp_text(domains, functions)).factors:
                dense = f.to_table()
                got = DafsaFactor.from_table(f)
                want = DafsaFactor.from_table(dense)
                assert entry_bytes(got) == entry_bytes(want), (domains, functions)
                assert round(f.redundancy(), 12) == round(dense.redundancy(), 12)

    def test_negative_zero_is_stored_as_zero(self):
        sparse = SparseFactor((0, 1), (2, 2), -0.0, {(1, 1): 0.0, (0, 1): -0.0})
        dense = TabularFactor((0,), (2,), np.array([-0.0, 1.0]))
        signs = [sparse.default, *sparse.exceptions.values(), *sparse.to_table().values,
                 *dense.values]
        assert all(math.copysign(1.0, v) == 1.0 for v in signs)

    def test_redundancy_counts_the_default_cells(self):
        f = SparseFactor(tuple(range(40)), (2,) * 40, 5.0, {(0,) * 40: 1.0, (1,) * 40: 5.0})
        assert f.redundancy() == 1.0 - 2 / 2**40
        covered = SparseFactor((0,), (2,), 7.0, {(0,): 1.0, (1,): 1.0})
        assert covered.redundancy() == 0.5

    def test_write_wcsp_matches_dense_form(self):
        for domains, functions in model_cases():
            m = parse_wcsp(wcsp_text(domains, functions))
            dense = GraphicalModel(m.n_vars, m.domains, [f.to_table() for f in m.factors], m.task)
            assert write_wcsp(m) == write_wcsp(dense)


class TestOracleBudget:
    """Budgets are checked before a table is allocated, not after."""

    def peak_bytes(self, fn):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_tabular_refuses_wide_factor_before_densifying(self):
        f = SparseFactor(tuple(range(24)), (2,) * 24, 1.0, {(0,) * 24: 0.0})
        m = GraphicalModel(24, (2,) * 24, (f,), Task.WCSP)
        assert self.peak_bytes(lambda: tabular_be(m)) < 4 * 2**20  # dense: 128 MB

    def test_tabular_refuses_combine_before_broadcasting(self):
        # both factors land in variable 22's bucket; their product has 2^23 cells
        a = TabularFactor(tuple(range(11)) + (22,), (2,) * 12, np.zeros(2**12))
        b = TabularFactor(tuple(range(11, 23)), (2,) * 12, np.ones(2**12))
        m = GraphicalModel(23, (2,) * 23, (a, b), Task.WCSP)
        run = lambda: tabular_be(m, tuple(range(23)), budget=OracleBudget(max_cells=10**4))
        assert self.peak_bytes(run) < 4 * 2**20  # product: 64 MB

    def test_brute_force_checks_assignments_before_densifying(self):
        f = SparseFactor(tuple(range(22)), (2,) * 22, 1.0, {(0,) * 22: 0.0})
        m = GraphicalModel(22, (2,) * 22, (f,), Task.WCSP)
        assert self.peak_bytes(lambda: brute_force(m)) < 4 * 2**20


ARITY = 40
RSS_BOUND_MB = 100
CHILD = """
import contextlib, io, json, resource, sys
from dafbe import cli
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    rc = cli.main(sys.argv[1:])
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"rc": rc, "out": buf.getvalue(), "rss_mb": rss_mb}))
"""
# Linux carries the parent's resident set at fork into a child's
# ru_maxrss, and pytest can be large by now, so the solver runs as the
# child of a fresh, small interpreter
LAUNCH = "import subprocess, sys; sys.exit(subprocess.run([sys.executable, *sys.argv[1:]]).returncode)"


def arity40_text():
    """One arity-40 function (scope listed backwards) plus an equality chain.

    The chain costs 2 per neighbour pair that differs.  The wide function
    costs 5 except: all zeros 1, twenty zeros then twenty ones 0, all
    ones but the last 3.  All zeros scores 1 + 0, the switch 0 + 2, the
    near-all-ones 3 + 2, any other assignment at least 5: optimum 1.
    """
    n = ARITY
    scope = list(range(n - 1, -1, -1))
    in_var_order = {(0,) * n: 1, (0,) * 20 + (1,) * 20: 0, (1,) * (n - 1) + (0,): 3}
    wide = (scope, 5, [(tuple(reversed(w)), c) for w, c in in_var_order.items()])
    chain = [([v, v + 1], 2, [((0, 0), 0), ((1, 1), 0)]) for v in range(n - 1)]
    return wcsp_text([2] * n, [wide] + chain, upper=1000)


def run_child(tmp_path, *argv):
    path = tmp_path / "arity40.wcsp"
    path.write_text(arity40_text(), encoding="ascii")
    out = subprocess.run([sys.executable, "-c", LAUNCH, "-c", CHILD, "solve", "--format",
                          "json-lines", *argv, str(path)], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    return doc["rc"], json.loads(doc["out"]), doc["rss_mb"]


class TestArity40:
    def test_solves_within_rss_bound(self, tmp_path):
        rc, rec, rss_mb = run_child(tmp_path)
        assert rc == 0 and rec["status"] == "optimal"
        assert rec["optimum"] == 1.0
        assert rec["assignment"] == [0] * ARITY
        assert rss_mb < RSS_BOUND_MB

    def test_check_all_skips_the_oracles(self, tmp_path):
        rc, rec, rss_mb = run_child(tmp_path, "--engine", "check-all")
        assert rc == 0 and rec["status"] == "optimal" and rec["optimum"] == 1.0
        assert rec["engines_skipped"] == ["tabular", "brute"]
        assert rss_mb < RSS_BOUND_MB
