"""``DafsaFactor.on_support`` against projecting the ignored variables out.

A variable a factor ignores is a level of its shared form on which every
state is a lone wildcard edge.  ``on_support`` splices those levels out;
the result must be byte-identical to min-projecting each of them out in
turn, which keeps every value since none of them matters.  Each test runs
on both kernel editions: ``from_table`` and ``project`` call the kernels
of the module ``dafbe.factor`` holds, set here to one edition or the
other.
"""

import itertools
import math
import random

import pytest

import dafbe._kernels_py as kernels_py
import dafbe.factor as factor_mod
from dafbe.automata import WILDCARD, _levels
from dafbe.factor import DafsaFactor, SparseFactor, project
from dafbe.factor import _with_inf_entry as with_inf_entry

from conftest import flat, ignoring_table


@pytest.fixture(params=["python", "compiled"])
def edition(request, monkeypatch):
    if request.param == "python":
        kernels = kernels_py
    else:
        kernels = request.getfixturevalue("compiled_kernels")
    monkeypatch.setattr(factor_mod, "kernels", kernels)
    return request.param


def form(f):
    return f.scope, f.domains, f.keys, flat(f.shared)


def projected(f, dropped):
    """``f`` with each variable of ``dropped`` min-projected out in turn."""
    for var in dropped:
        f, _ = project(f, var, "min")
    return f


def busy_levels(f):
    """The levels of ``f``'s shared form that hold a state other than a
    lone wildcard edge, read off breadth-first levels."""
    t_off, t_sym, t_dst, _ = f.shared
    busy = set()
    for s, lv in enumerate(_levels(t_off, t_dst, 0)):
        lo, hi = t_off[s], t_off[s + 1]
        if lv < len(f.scope) and not (hi - lo == 1 and t_sym[lo] == WILDCARD):
            busy.add(lv)
    return sorted(busy)


def check_splice(f):
    """``f.on_support()`` against projection; returns it."""
    g = f.on_support()
    kept = busy_levels(f)
    assert g.scope == tuple(f.scope[lv] for lv in kept)
    assert g.domains == tuple(f.domains[lv] for lv in kept)
    assert g.keys == f.keys
    dropped = [var for var in f.scope if var not in g.scope]
    assert form(g) == form(projected(f, dropped))
    if not dropped:
        assert g is f
    assert g.on_support() is g
    return g


class TestAgainstProjection:
    def test_random_ignoring_factors(self, edition):
        rng = random.Random(20261018)
        palettes = ([0.0, 1.0], [0.0, 1.0, 2.5, math.inf], [0.5, 1.5, 3.0, 4.0, math.inf])
        seen = set()
        for trial in range(400):
            scope = tuple(sorted(rng.sample(range(6), rng.randrange(0, 6))))
            domains = tuple(rng.randrange(1, 5) for _ in scope)
            support = {var for var in scope if rng.random() < 0.5}
            palette = palettes[trial % 3]
            table = ignoring_table(scope, domains, support, lambda: rng.choice(palette))
            f = DafsaFactor.from_table(table)
            if not f.keys:  # every row infinite
                assert f.on_support() is f
                continue
            g = check_splice(f)
            # every variable outside the support is dropped
            assert set(g.scope) <= support, (trial, scope, support, g.scope)
            for var, k in zip(scope, domains):
                if k == 1:
                    assert var not in g.scope  # a domain-1 variable is always idle
            # every kept variable changes the value of some assignment
            for var in g.scope:
                pos = g.scope.index(var)
                assert any(
                    len({g.value_at(dict(zip(g.scope, w[:pos] + (v,) + w[pos:])))
                         for v in range(g.domains[pos])}) > 1
                    for w in itertools.product(*(range(k) for k in g.domains[:pos] + g.domains[pos + 1:]))
                ), (trial, var)
            seen.add(("dropped some" if len(g.scope) < len(scope) else "dropped none",
                      "constant" if not g.scope else "varying"))
        assert seen == {("dropped some", "constant"), ("dropped some", "varying"),
                        ("dropped none", "varying"), ("dropped none", "constant")}

    def test_pruned_rows_keep_their_level(self, edition):
        # the values ignore variable 1, but its left-out inf rows are a
        # partial fan, so it stays; variable 0 goes
        table = SparseFactor((0, 1, 2), (2, 3, 2), 1.0, {(a, 2, c): math.inf for a in (0, 1) for c in (0, 1)})
        f = DafsaFactor.from_table(table)
        g = check_splice(f)
        assert g.scope == (1,) and g.keys == (1.0,)
        assert g.value_at({1: 0}) == 1.0 and g.value_at({1: 2}) is None
        kept = with_inf_entry(f)  # inf as a value: variable 1 is in the support
        assert kept.keys == (1.0, math.inf) and check_splice(kept).scope == (1,)

    def test_constants(self, edition):
        for scope, domains in (((0,), (3,)), ((1, 4), (1, 2)), ((0, 2, 3, 5), (2, 3, 1, 4))):
            f = DafsaFactor.from_table(SparseFactor(scope, domains, 2.5, {}))
            g = check_splice(f)
            assert g.scope == () and g.domains == () and g.keys == (2.5,)
            assert flat(g.shared) == ((0, 0), (), (), (0,))
        scalar = DafsaFactor.from_table(SparseFactor((), (), 1.0, {}))
        assert scalar.on_support() is scalar

    def test_no_idle_level_returns_the_factor(self, edition):
        f = DafsaFactor.from_table(SparseFactor((0, 1), (2, 3), 0.0, {(1, 2): 1.0, (0, 0): 2.0}))
        assert WILDCARD not in f.shared[1]
        assert check_splice(f) is f
        # wildcards, but on levels that also hold other states
        g = DafsaFactor.from_table(SparseFactor((0, 1), (2, 3), 0.0, {(1, 2): 1.0}))
        assert WILDCARD in g.shared[1]
        assert check_splice(g) is g

    def test_empty_function(self, edition):
        empty = DafsaFactor((0, 1), (2, 3), ())
        assert empty.on_support() is empty
        infinite = DafsaFactor.from_table(SparseFactor((0, 1), (2, 3), math.inf, {}))
        assert infinite.keys == () and infinite.on_support() is infinite

    def test_runs_of_idle_levels(self, edition):
        # idle levels first, last, and in runs between kept ones
        scope = tuple(range(8))
        domains = (2, 1, 3, 2, 2, 1, 2, 3)
        rng = random.Random(7)
        for support in ({2, 6}, {0, 7}, {3}, {0, 3, 4, 7}):
            table = ignoring_table(scope, domains, support, lambda: rng.choice([0.0, 1.0, 2.0, 3.0]))
            g = check_splice(DafsaFactor.from_table(table))
            assert set(g.scope) <= support
