import math

import numpy as np
import pytest

from dafbe.errors import BudgetExceeded, TimeLimit
from dafbe.factor import TabularFactor
from dafbe.model import GraphicalModel, Task, min_fill_ordering
from dafbe.oracle import OracleBudget, brute_force, tabular_be

from conftest import micro_model, table_from_feed


@pytest.mark.parametrize("task", [Task.MAP, Task.WCSP], ids=["map", "wcsp"])
@pytest.mark.parametrize("solve", [brute_force, tabular_be], ids=["brute", "tabular"])
def test_cost_is_the_sum_of_cost_factors_at_the_assignment(solve, task):
    # both oracles minimize model.cost_factors(), as the automaton solver does
    for seed in range(20):
        m = micro_model(seed, task)
        r = solve(m)
        if r.status != "optimal":
            assert r.cost == math.inf and r.assignment is None
            continue
        want = sum(f.value_of(r.assignment) for f in m.cost_factors())
        assert r.cost == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestBruteForce:
    def test_exhausts_micro_models(self):
        for seed in range(20):
            m = micro_model(seed)
            r = brute_force(m)
            if r.status == "optimal":
                assert m.evaluate(r.assignment) == pytest.approx(r.optimum, rel=1e-12)

    def test_tie_break_lowest_lexicographic(self):
        t = table_from_feed((0, 1), (2, 2), lambda a: 1.0)
        m = GraphicalModel(2, (2, 2), (t,), Task.WCSP)
        assert brute_force(m).assignment == (0, 0)
        t2 = table_from_feed((0, 1), (3, 2), lambda a: 0.0 if a[0] >= 1 else 5.0)
        m2 = GraphicalModel(2, (3, 2), (t2,), Task.WCSP)
        assert brute_force(m2).assignment == (1, 0)

    def test_infeasible(self):
        t = table_from_feed((0,), (2,), lambda a: math.inf)
        m = GraphicalModel(1, (2,), (t,), Task.WCSP)
        r = brute_force(m)
        assert r.status == "infeasible" and r.assignment is None

    def test_assignment_budget(self):
        m = GraphicalModel(8, (10,) * 8, (), Task.WCSP)
        with pytest.raises(BudgetExceeded):
            brute_force(m, OracleBudget(max_assignments=10**6))


class TestTabularBe:
    def test_agrees_with_brute(self):
        for seed in range(30):
            m = micro_model(seed)
            b = brute_force(m)
            t = tabular_be(m, min_fill_ordering(m))
            assert t.status == b.status
            if b.status == "optimal":
                tol = 1e-6 * max(1.0, abs(b.optimum)) if m.task is Task.MAP else 1e-9
                assert abs(t.optimum - b.optimum) <= tol
                assert abs(m.evaluate(t.assignment) - b.optimum) <= tol

    def test_peak_cells_at_least_largest_table(self):
        m = micro_model(2)
        r = tabular_be(m, min_fill_ordering(m))
        assert r.stats.peak_table_cells >= max(f.size for f in m.factors)

    def test_cell_budget(self):
        factors = tuple(
            table_from_feed((i, i + 1), (4, 4), lambda a: 1.0) for i in range(11)
        )
        m = GraphicalModel(12, (4,) * 12, factors, Task.WCSP)
        # chain has tiny width; shrink the budget below one 4x4 table
        with pytest.raises(BudgetExceeded):
            tabular_be(m, min_fill_ordering(m), budget=OracleBudget(max_cells=8))

    def test_infeasible(self):
        t = table_from_feed((0, 1), (2, 2), lambda a: math.inf)
        m = GraphicalModel(2, (2, 2), (t,), Task.WCSP)
        assert tabular_be(m, min_fill_ordering(m)).status == "infeasible"

    def test_time_limit(self):
        t = table_from_feed((0, 1), (2, 2), lambda a: float(a[0] + a[1]))
        m = GraphicalModel(2, (2, 2), (t,), Task.WCSP)
        with pytest.raises(TimeLimit, match="^time limit exceeded$"):
            tabular_be(m, time_limit=0.0)
        for limit in (None, math.inf):
            assert tabular_be(m, time_limit=limit).assignment == (0, 0)
