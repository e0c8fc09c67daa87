"""``combine`` and ``project`` against the two-operand set algebra they replace.

``factor.combine`` and ``factor.project`` each run one multi-terminal
kernel pass over all entries.  The references below are the loops they
replaced, kept here the way ``test_model.py`` keeps its set-based
ordering: ``combine`` intersected every entry pair and unioned the pieces
key by key, ``project`` removed the level from each entry and resolved
overlaps by a running difference, best value first.  The fused step,
``project(f, var, op, other=g)``, is checked against projecting
``combine(f, g, partner)``.  Entries must come out byte-identical, and
every kernel call goes through the ``both`` fixture, so the compiled
edition must agree with the Python one on each.
"""

import math
import random
import sys

import pytest

import dafbe.factor as factor_mod
from dafbe.automata import Dafsa
from dafbe.errors import FactorError
from dafbe.factor import PARTNER, DafsaFactor, SparseFactor, combine, project
from dafbe.factor import _with_inf_entry as with_inf_entry
from dafbe.keying import DEFAULT_EPS, ValueKeySet

from conftest import flat


def reference_combine(f1, f2, op, eps=DEFAULT_EPS):
    kmap = dict(zip(f1.scope, f1.domains))
    kmap.update(zip(f2.scope, f2.domains))
    scope = tuple(sorted(kmap))
    domains = tuple(kmap[v] for v in scope)
    a = f1.add_levels(scope, domains)
    b = f2.add_levels(scope, domains)
    pair_values = [
        [va + vb if op == "sum" else va * vb for vb, _ in b.entries] for va, _ in a.entries
    ]
    keyset = ValueKeySet.from_values((v for row in pair_values for v in row), eps)
    acc = {}
    for i, (_, da) in enumerate(a.entries):
        for j, (_, db) in enumerate(b.entries):
            inter = da.intersect(db)
            if inter.is_empty():
                continue
            key = keyset.key(pair_values[i][j])
            cur = acc.get(key)
            acc[key] = inter if cur is None else cur.union(inter)
    return DafsaFactor(scope, domains, tuple(sorted(acc.items())))


def reference_project(f, var, op):
    pos = f.scope.index(var)
    scope = f.scope[:pos] + f.scope[pos + 1 :]
    domains = f.domains[:pos] + f.domains[pos + 1 :]
    shrunk = [(val, dafsa.remove_level(pos)[0]) for val, dafsa in f.entries]
    if op == "max":
        shrunk.reverse()
    kept = []
    prec = None
    for val, dafsa in shrunk:
        remainder = dafsa if prec is None else dafsa.difference(prec)
        if not remainder.is_empty():
            kept.append((val, remainder))
        prec = dafsa if prec is None else prec.union(dafsa)
    kept.sort(key=lambda e: e[0])
    return DafsaFactor(scope, domains, tuple(kept))


def entry_bytes(f):
    return f.scope, f.domains, tuple((v, flat(d.parts)) for v, d in f.entries)


@pytest.fixture
def through_both(both, monkeypatch):
    """Route the factor module's multi-entry kernels through ``both``."""
    kernels = factor_mod.kernels

    class Both:
        def __getattr__(self, name):
            return getattr(kernels, name)

        def combine_entries(self, *args):
            return both("combine_entries", *args)

        def project_entries(self, *args):
            return both("project_entries", *args)

    monkeypatch.setattr(factor_mod, "kernels", Both())


VARS = 6


def rand_scope(rng, kind, other=None):
    """A scope of the given relation to ``other``: any, disjoint, nested, equal or empty."""
    if kind == "empty":
        return ()
    if kind == "equal" and other:
        return other
    if kind == "nested" and other:
        return tuple(sorted(rng.sample(other, rng.randrange(1, len(other) + 1))))
    if kind == "disjoint" and other and len(other) < VARS:
        rest = [v for v in range(VARS) if v not in other]
        return tuple(sorted(rng.sample(rest, rng.randrange(1, min(3, len(rest)) + 1))))
    return tuple(sorted(rng.sample(range(VARS), rng.randrange(1, 4))))


def rand_factor(rng, scope, doms, probabilities):
    """Random factor: redundant values, some inf rows (left out, or half
    the time an inf entry), now and then a constant table, whose one
    entry is universal."""
    domains = tuple(doms[v] for v in scope)
    palette = [0.0, 0.25, 0.5, 1.0] if probabilities else [0.0, 1.0, 2.5, 4.0]
    roll = rng.random()
    if roll < 0.1:
        default = rng.choice(palette)
        return DafsaFactor.from_table(SparseFactor(scope, domains, default, {}))
    with_inf = not probabilities and roll < 0.6
    size = math.prod(domains)
    exceptions = {}
    for _ in range(rng.randrange(0, size + 1)):
        word = tuple(rng.randrange(k) for k in domains)
        exceptions[word] = math.inf if with_inf and rng.random() < 0.3 else rng.choice(palette)
    table = SparseFactor(scope, domains, rng.choice(palette), exceptions)
    f = DafsaFactor.from_table(table)
    return with_inf_entry(f) if rng.random() < 0.5 else f


KINDS = ["any", "disjoint", "nested", "equal", "empty"]
OPS = ["sum", "product", "min", "max"]


class TestAgainstPairLoops:
    def test_random_factors(self, through_both):
        rng = random.Random(20261018)
        # every combine op meets every scope relation 20 times
        for trial in range(400):
            op = OPS[trial % 4]
            kind = KINDS[trial // 4 % 5]
            doms = [rng.randrange(1, 4) for _ in range(VARS)]
            probabilities = op in ("product", "max")
            if op in ("sum", "product"):
                s1 = rand_scope(rng, "any")
                s2 = rand_scope(rng, kind, s1)
                f1 = rand_factor(rng, s1, doms, probabilities)
                f2 = rand_factor(rng, s2, doms, probabilities)
                got, want = combine(f1, f2, op), reference_combine(f1, f2, op)
            else:
                f = rand_factor(rng, rand_scope(rng, "any"), doms, probabilities)
                var = rng.choice(f.scope)
                got, growth = project(f, var, op)
                want = reference_project(f, var, op)
                assert len(growth) == 1
            assert entry_bytes(got) == entry_bytes(want), (trial, op, kind)

    def test_inf_times_zero_still_raises(self, through_both):
        # from_table leaves inf out; the entries constructor still takes it
        f1 = DafsaFactor((0,), (2,), ((0.0, Dafsa.from_strings((2,), [(0,)])),
                                      (math.inf, Dafsa.from_strings((2,), [(1,)]))))
        f2 = DafsaFactor.from_table(SparseFactor((1,), (2,), 0.0, {(0,): 1.0}))
        for fn in (combine, reference_combine):
            with pytest.raises(FactorError):
                fn(f1, f2, "product")

    def test_left_out_cells_are_inf_under_max_and_product(self, through_both):
        # from_table leaves the inf cell out; max and product still read it as inf
        f = DafsaFactor.from_table(SparseFactor((0,), (2,), 1.0, {(0,): math.inf}))
        g, _ = project(f, 0, "max")
        assert g.keys == (math.inf,) and g.value_at((0,)) == math.inf
        one = DafsaFactor.from_table(SparseFactor((1,), (2,), 1.0, {}))
        assert combine(f, one, "product").value_at((0, 1)) == math.inf
        zero = DafsaFactor.from_table(SparseFactor((1,), (2,), 0.0, {}))
        with pytest.raises(FactorError):
            combine(f, zero, "product")
        with pytest.raises(FactorError):
            project(f, 1, "max", other=zero)

    def test_empty_factors(self, through_both):
        empty = DafsaFactor((0, 1), (2, 3), ())
        full = DafsaFactor.from_table(SparseFactor((1,), (3,), 1.0, {}))
        for a, b in ((empty, full), (full, empty), (empty, empty)):
            assert entry_bytes(combine(a, b, "sum")) == entry_bytes(reference_combine(a, b, "sum"))
        got, growth = project(empty, 1, "min")
        assert got.entries == () and len(growth) == 1


def fused_and_unfused(f, g, var, op):
    """Entry bytes of the fused step and of projecting the combined factor."""
    got, growth = project(f, var, op, other=g)
    want, _ = project(combine(f, g, PARTNER[op]), var, op)
    assert len(growth) == 1 and min(growth[0]) >= 1, growth
    return entry_bytes(got), entry_bytes(want)


class TestFusedStep:
    def test_random_pairs(self, through_both):
        rng = random.Random(20261019)
        seen = set()
        # both ops meet every scope relation 60 times, the variable drawn
        # from f's scope only, g's only or both, as the scopes allow
        for trial in range(480):
            op = ("min", "max")[trial % 2]
            kind = ("any", "disjoint", "nested", "equal")[trial // 2 % 4]
            doms = [rng.randrange(1, 4) for _ in range(VARS)]
            s1 = rand_scope(rng, "any")
            s2 = rand_scope(rng, kind, s1)
            f = rand_factor(rng, s1, doms, op == "max")
            g = rand_factor(rng, s2, doms, op == "max")
            where = {
                "f only": [v for v in s1 if v not in s2],
                "g only": [v for v in s2 if v not in s1],
                "both": [v for v in s1 if v in s2],
            }
            wanted = ("f only", "g only", "both")[trial // 8 % 3]
            if not where[wanted]:
                wanted = rng.choice([w for w, vs in where.items() if vs])
            var = rng.choice(where[wanted])
            got, want = fused_and_unfused(f, g, var, op)
            assert got == want, (trial, op, kind, wanted)
            seen.add((op, kind, wanted))
        relations = {(k, w) for _, k, w in seen}
        assert {w for _, w in relations} == {"f only", "g only", "both"}
        assert {k for k, _ in relations} == {"any", "disjoint", "nested", "equal"}
        assert {op for op, _, _ in seen} == {"min", "max"}

    def test_constant_and_infinite_operands(self, through_both):
        # a universal entry on either side, inf rows left out or an inf entry
        hard = DafsaFactor.from_table(
            SparseFactor((0, 1), (2, 3), 1.0, {(0, 0): math.inf, (1, 2): 0.0, (1, 1): math.inf}))
        g = DafsaFactor.from_table(SparseFactor((1, 2), (3, 2), 2.5, {}))
        for f in (hard, with_inf_entry(hard)):
            for a, b in ((f, g), (g, f), (f, f), (g, g)):
                for var in sorted(set(a.scope) | set(b.scope)):
                    got, want = fused_and_unfused(a, b, var, "min")
                    assert got == want, (f.keys, a.scope, b.scope, var)

    def test_empty_operand(self, through_both):
        empty = DafsaFactor((0, 1), (2, 3), ())
        full = DafsaFactor.from_table(SparseFactor((1,), (3,), 1.0, {}))
        for a, b in ((empty, full), (full, empty), (empty, empty)):
            for var in (0, 1):
                if var in a.scope or var in b.scope:
                    got, want = fused_and_unfused(a, b, var, "min")
                    assert got == want and got[2] == ()

    def test_variable_outside_both_scopes(self):
        f = DafsaFactor.from_table(SparseFactor((0,), (2,), 1.0, {}))
        with pytest.raises(FactorError):
            project(f, 3, "min", other=f)


class TestDeep:
    # 1,500 levels, past the recursion limit, through each kernel
    L = 1500

    def deep_factor(self, rng, scope, n_words, values):
        """Entries of a few random strings each, and one for all the rest."""
        domains = (2,) * len(scope)
        words = sorted({tuple(rng.randrange(2) for _ in scope) for _ in range(n_words)})
        entries = [(v, Dafsa.from_strings(domains, words[i :: len(values)]))
                   for i, v in enumerate(values)]
        rest = Dafsa.universal(domains).difference(Dafsa.from_strings(domains, words))
        return DafsaFactor(scope, domains, (*entries, (max(values) + 1, rest)))

    def test_combine_entries(self, through_both):
        assert self.L > sys.getrecursionlimit()
        rng = random.Random(1500)
        f1 = self.deep_factor(rng, tuple(range(self.L)), 8, [0.0, 1.0, 2.0])
        f2 = self.deep_factor(rng, tuple(range(0, self.L, 2)), 8, [0.0, 0.5])
        assert entry_bytes(combine(f1, f2, "sum")) == entry_bytes(reference_combine(f1, f2, "sum"))

    def test_project_entries(self, through_both):
        rng = random.Random(1501)
        f = self.deep_factor(rng, tuple(range(self.L)), 10, [0.0, 1.0, 2.0])
        for var in (0, self.L // 2, self.L - 1):
            got, _ = project(f, var, "min")
            assert entry_bytes(got) == entry_bytes(reference_project(f, var, "min"))

    def test_project_last_level(self, through_both):
        # the level the solver removes: the walk steps single states, so
        # the sample counts every state above the last level, once as
        # states and once as subsets
        rng = random.Random(1503)
        f = self.deep_factor(rng, tuple(range(self.L)), 12, [0.0, 0.5, 1.0, 2.0])
        got, growth = project(f, self.L - 1, "min")
        assert entry_bytes(got) == entry_bytes(reference_project(f, self.L - 1, "min"))
        above = f.total_states - len(f.keys)  # the terminals, one per value, come last
        assert growth == [(above, above)] and above > self.L

    def test_fused_step(self, through_both):
        rng = random.Random(1502)
        f1 = self.deep_factor(rng, tuple(range(self.L)), 8, [0.0, 1.0, 2.0])
        f2 = self.deep_factor(rng, tuple(range(0, self.L, 2)), 8, [0.0, 0.5])
        combined = combine(f1, f2, "sum")
        # the first and last levels, in both scopes or in f1's only; only
        # the last is folded, and the fold forms no set of pairs, so its
        # sample counts the pairs it walked twice
        for var in (0, 1, self.L - 1):
            got, growth = project(f1, var, "min", other=f2)
            assert entry_bytes(got) == entry_bytes(project(combined, var, "min")[0]), var
            assert len(growth) == 1
        (pairs, nodes), = growth
        assert pairs == nodes > self.L, growth
