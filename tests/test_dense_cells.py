"""The dense table's read side: ``cells`` lists only the cells off the most
frequent value, as a WCSP function states them, and ``present_values``
gives the distinct values.  Each table compiles, in both kernel editions,
to the same bytes as the sparse function of its default and listed cells.
"""

import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest

import dafbe.factor as factor_mod
from dafbe.factor import DafsaFactor, SparseFactor, TabularFactor
from dafbe.keying import DEFAULT_EPS

from conftest import flat

INF = math.inf

CASES = {
    # 1.0 and 2.0 hold two cells each: the smaller is the default
    "tied": ((0, 1), (2, 3), [2.0, 1.0, 2.0, 1.0, 3.0, 0.0]),
    "inf-most-frequent": ((0, 1), (2, 3), [INF, INF, 1.0, INF, 0.0, INF]),
    "zero-scope": ((), (), [4.5]),
    "constant": ((0, 1, 2), (3, 2, 2), [7.0] * 12),
    "all-distinct": ((0, 1), (3, 4), [5.5, 0.25, 11.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 10.0, 6.0]),
    "negative-zero": ((0, 1), (2, 3), [-0.0, 0.0, 1.0, -0.0, 2.0, 1.0]),
}


def _random_tables():
    rng = random.Random(20261020)
    for _ in range(40):
        n = rng.randint(0, 4)
        domains = tuple(rng.randint(1, 3) for _ in range(n))
        pool = rng.sample([0.0, -0.0, 0.5, 1.0, 2.0, 2.0 + 1e-12, INF], rng.randint(1, 4))
        yield tuple(range(n)), domains, [rng.choice(pool) for _ in range(math.prod(domains))]


TABLES = [TabularFactor(*case) for case in CASES.values()]
TABLES += [TabularFactor(*case) for case in _random_tables()]
IDS = list(CASES) + [f"random-{i}" for i in range(len(TABLES) - len(CASES))]


@pytest.fixture
def edition(kernels, monkeypatch):
    """``from_table`` compiling through one kernel edition."""
    monkeypatch.setattr(factor_mod, "kernels", kernels)


def _rows(digits, arity, count):
    return [tuple(digits[i * arity : (i + 1) * arity]) for i in range(count)]


@pytest.mark.parametrize("table", TABLES, ids=IDS)
def test_cells_list_what_is_off_the_most_frequent_value(table):
    digits, values, default = table.cells()
    counts = Counter(table.values.tolist())
    assert default == min(counts, key=lambda v: (-counts[v], v))
    assert math.copysign(1.0, default) == 1.0
    words = list(itertools.product(*(range(k) for k in table.domains)))
    rows = _rows(digits, len(table.domains), len(values))
    # rank order, and exactly the cells whose value is not the default
    assert rows == [w for w in words if table.value_of(w) != default]
    assert values == [table.value_of(w) for w in rows]
    assert default not in values
    assert isinstance(values, list)


def test_named_cases_pick_their_defaults():
    defaults = [TabularFactor(*case).cells()[2] for case in CASES.values()]
    assert defaults == [1.0, INF, 4.5, 7.0, 0.25, 0.0]
    assert len(TabularFactor(*CASES["all-distinct"]).cells()[1]) == 11
    assert TabularFactor(*CASES["constant"]).cells()[1] == []


@pytest.mark.parametrize("table", TABLES, ids=IDS)
def test_present_values_are_the_sorted_distinct_values(table):
    got = table.present_values()
    assert isinstance(got, list)
    assert got == sorted(set(table.values.tolist()))


@pytest.mark.parametrize("table", TABLES, ids=IDS)
def test_compiles_as_its_sparse_form(table, edition):
    digits, values, default = table.cells()
    rows = _rows(digits, len(table.domains), len(values))
    sparse = SparseFactor(table.scope, table.domains, default, dict(zip(rows, values)))
    got = DafsaFactor.from_table(table)
    want = DafsaFactor.from_table(sparse)
    assert got.keys == want.keys
    assert flat(got.shared) == flat(want.shared)
    for word in itertools.product(*(range(k) for k in table.domains)):
        v = table.value_of(word)  # 2.0 + 1e-12 keys to 2.0
        if v == INF:
            assert got.value_at(word) is None
        else:
            assert got.value_at(word) == pytest.approx(v, rel=0, abs=DEFAULT_EPS)


def test_many_row_compile(edition):
    # all 2^14 values distinct: the default is the smallest, and every
    # other cell is a listed row, 2^14 - 1 of them
    n = 14
    values = np.random.default_rng(14).permutation(2**n) * 0.5
    table = TabularFactor(tuple(range(n)), (2,) * n, values)
    digits, listed, default = table.cells()
    assert default == 0.0 and len(listed) == 2**n - 1 == len(digits) // n
    f = DafsaFactor.from_table(table)
    assert f.entry_count == 2**n
    for word in itertools.product((0, 1), repeat=n):
        assert f.value_at(word) == table.value_of(word)
