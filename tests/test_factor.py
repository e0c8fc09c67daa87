"""Value-keyed automaton factors against dense tabular references."""

import itertools
import math
import random
from array import array

import numpy as np
import pytest

from dafbe._backend import kernels
from dafbe.automata import Dafsa
from dafbe.errors import FactorError
from dafbe.factor import DafsaFactor, SparseFactor, TabularFactor, _strides, combine, project
from dafbe.keying import ValueKeySet

from conftest import demo_factor, demo_table, table_from_feed


def assignments(domains):
    return itertools.product(*(range(k) for k in domains))


def rand_table(rng, scope, domains, with_inf):
    def feed(a):
        if with_inf and rng.random() < 0.2:
            return math.inf
        return rng.choice([0.0, 1.0, 2.5])

    return table_from_feed(scope, domains, feed)


class TestTabularFactor:
    def test_value_of_uses_model_assignment(self):
        t = demo_table()
        assert t.value_of((0, 1, 0)) == 2.0
        assert t.value_of((1, 0, 1)) == 7.0

    def test_validation(self):
        with pytest.raises(FactorError):
            TabularFactor((1, 0), (2, 2), np.zeros(4))
        with pytest.raises(FactorError):
            TabularFactor((0, 1), (2, 2), np.zeros(3))
        with pytest.raises(FactorError):
            TabularFactor((0, 0), (2, 2), np.zeros(4))

    def test_redundancy(self):
        assert demo_table().redundancy() == 0.5
        const = TabularFactor((0,), (4,), np.full(4, 9.0))
        assert const.redundancy() == 1.0 - 1 / 4


class TestFromTable:
    def test_golden_grouping(self):
        f = demo_factor()
        assert [v for v, _ in f.entries] == [1.0, 2.0, 3.0, 7.0]
        langs = [sorted(d.enumerate_strings()) for _, d in f.entries]
        assert langs[0] == [(0, 0, 0), (0, 0, 1), (0, 1, 1)]
        assert langs[1] == [(0, 1, 0)]
        assert langs[2] == [(1, 0, 0), (1, 1, 0)]
        assert langs[3] == [(1, 0, 1), (1, 1, 1)]
        f.check_partition()

    def test_golden_automata_are_minimal(self):
        f = demo_factor()
        counts = {v: d.state_count for v, d in f.entries}
        assert counts[2.0] == 4   # single string, one state per level
        assert counts[3.0] == 4   # middle level collapses to a wildcard
        assert counts[7.0] == 4

    def test_roundtrip_identity(self):
        t = demo_table()
        back = DafsaFactor.from_table(t).to_table()
        assert back.scope == t.scope and back.domains == t.domains
        assert np.array_equal(back.values, t.values)

    def test_roundtrip_random(self, rng):
        for trial in range(60):
            dims = tuple(rng.choice([2, 3]) for _ in range(rng.randrange(1, 4)))
            t = rand_table(rng, range(len(dims)), dims, with_inf=trial % 2)
            back = DafsaFactor.from_table(t).to_table()
            assert np.array_equal(back.values, t.values)

    def test_prune_infinite(self):
        # from_table leaves infinite cells out, for both table kinds and a
        # sparse default of inf: no inf key, value_at None, and to_table
        # fills inf back in
        dense = TabularFactor((0, 1), (2, 2), np.array([math.inf, 2.0, 0.0, math.inf]))
        for t in (
            dense,
            SparseFactor((0, 1), (2, 2), math.inf, {(0, 1): 2.0, (1, 0): 0.0}),
            SparseFactor((0, 1), (2, 2), 2.0, {(0, 0): math.inf, (1, 0): 0.0, (1, 1): math.inf}),
        ):
            f = DafsaFactor.from_table(t)
            assert f.keys == (0.0, 2.0)
            assert [v for v, _ in f.entries] == [0.0, 2.0]
            assert f.value_at((0, 0)) is None and f.value_at((1, 1)) is None
            assert f.value_at((0, 1)) == 2.0 and f.value_at((1, 0)) == 0.0
            f.check_partition(covering=False)
            with pytest.raises(FactorError):
                f.check_partition(covering=True)
            assert np.array_equal(f.to_table().values, dense.values)  # inf refills the holes

    def test_epsilon_grouping(self):
        t = TabularFactor((0,), (2,), np.array([1.0, 1.0 + 1e-12]))
        assert DafsaFactor.from_table(t, eps=1e-10).entry_count == 1
        assert DafsaFactor.from_table(t, eps=0.0).entry_count == 2


def scan_from_table(table, eps):
    """Reference grouping: key value by value, then one ``keyed == rep`` scan per
    finite key; the infinite rows get no entry."""
    values = table.values
    keyset = ValueKeySet.from_values(values.tolist(), eps)
    reps = np.asarray(keyset.reps, dtype=np.float64)
    keyed = np.full(len(values), math.inf)
    finite = ~np.isinf(values)
    if finite.any():
        keyed[finite] = reps[np.searchsorted(reps, values[finite], side="right") - 1]
    strides = np.asarray(_strides(table.domains), dtype=np.int64)
    dims = np.asarray(table.domains, dtype=np.int64)
    entries = []
    for rep in keyset.reps:
        rows = np.nonzero(keyed == rep)[0]
        flat = ((rows[:, None] // strides) % dims).astype(np.intc).reshape(-1)
        buf = array("i")
        buf.frombytes(flat.tobytes())
        # the rows of one key, compiled with one label: the term of the
        # shared form marks the accepting state
        (t_off, t_sym, t_dst, term), _ = kernels.compile_sorted(
            buf, len(rows), len(table.domains), table.domains, array("i", [0]) * len(rows), -1
        )
        acc = array("i", [s for s, t in enumerate(term) if t >= 0])
        entries.append((rep, Dafsa._from_parts(table.domains, (t_off, t_sym, t_dst, acc))))
    return entries


class TestDenseGrouping:
    """One stable argsort groups rows exactly as the per-key scan did."""

    def test_matches_per_key_scan(self, rng):
        eps = 1e-10
        # an epsilon chain (neighbours within eps, ends beyond it), exact
        # duplicates, infinity and zero
        pool = [0.0, 1.0, 1.0 + 0.6e-10, 1.0 + 1.2e-10, 1.0 + 1.8e-10, 2.0, 2.0 + 1e-13,
                5.5, math.inf]
        for trial in range(80):
            dims = tuple(rng.choice([1, 2, 3, 4]) for _ in range(rng.randrange(0, 5)))
            size = math.prod(dims)
            values = np.asarray([rng.choice(pool[: rng.randrange(1, len(pool) + 1)])
                                 for _ in range(size)])
            t = TabularFactor(tuple(range(len(dims))), dims, values)
            want = scan_from_table(t, eps)
            got = DafsaFactor.from_table(t, eps).entries
            assert [v for v, _ in got] == [v for v, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert (a.t_off, a.t_sym, a.t_dst, a.acc) == (b.t_off, b.t_sym, b.t_dst, b.acc)


class TestValidation:
    def test_entries_strictly_increasing(self):
        u = Dafsa.universal((2,))
        with pytest.raises(FactorError):
            DafsaFactor((0,), (2,), ((2.0, u), (1.0, u)))

    def test_empty_entry_rejected(self):
        with pytest.raises(FactorError):
            DafsaFactor((0,), (2,), ((1.0, Dafsa.empty((2,))),))

    def test_overlap_caught_by_checker(self):
        u = Dafsa.universal((2,))
        half = Dafsa.from_strings((2,), [(0,)])
        f = DafsaFactor((0,), (2,), ((1.0, half), (2.0, u)))
        with pytest.raises(FactorError):
            f.check_partition()


class TestConstantCompression:
    def test_constant_factor_is_one_wildcard_chain(self):
        m = 20
        t = TabularFactor(tuple(range(m)), (2,) * m, np.full(2**m, 3.5))
        f = DafsaFactor.from_table(t)
        assert f.entry_count == 1
        assert f.total_states <= m + 1
        assert f.redundancy() == 1.0 - 1 / 2**m


class TestAddLevels:
    def test_trailing_insert(self):
        f = demo_factor().add_levels((0, 1, 2, 3), (2, 2, 2, 3))
        assert f.scope == (0, 1, 2, 3)
        for a in assignments((2, 2, 2, 3)):
            assert f.value_at(a) == demo_table().value_of(a)

    def test_leading_inserts_are_wildcards(self):
        base = DafsaFactor.from_table(table_from_feed((2, 3), (2, 2), lambda a: float(a[0])))
        f = base.add_levels((0, 1, 2, 3), (3, 2, 2, 2))
        for _, d in f.entries:
            text = d.to_debug_text()
            assert "0 0 * " in text  # level 0 reads the new variable 0
            assert [ln.split()[2] for ln in text.splitlines() if ln[0] == "1"] == ["*"]

    def test_interleaved_inserts(self):
        rng = random.Random(3)
        base = DafsaFactor.from_table(rand_table(rng, (1, 4, 5), (2, 3, 2), with_inf=True))
        scope, domains = (0, 1, 2, 3, 4, 5, 6), (2, 2, 3, 1, 3, 2, 2)
        f = base.add_levels(scope, domains)
        assert f.scope == scope
        for _, d in f.entries:
            d.check_invariants()
        for a in assignments(domains):
            assert f.value_at(a) == base.value_at(a)

    def test_must_be_superset(self):
        with pytest.raises(FactorError):
            demo_factor().add_levels((0, 1), (2, 2))

    def test_domains_must_match_at_the_factor_scope(self):
        base = DafsaFactor.from_table(table_from_feed((2, 3), (2, 2), lambda a: float(a[0])))
        with pytest.raises(FactorError):
            base.add_levels((0, 1, 2, 3), (3, 2, 3, 2))
        with pytest.raises(FactorError):
            base.add_levels((0, 1, 2, 3), (3, 2, 2, 3))


class TestCombine:
    def test_golden_probe(self):
        # first factor reads variables (0,1,3), second (2,3); the union
        # scope interleaves them, so the probe splits as (0,1,_,0)->2.0
        # and (_,_,1,0)->3.0
        f1 = DafsaFactor.from_table(
            TabularFactor((0, 1, 3), (2, 2, 2), demo_table().values)
        )
        f2 = DafsaFactor.from_table(
            table_from_feed((2, 3), (2, 2), lambda a: [[3.0, 7.0], [3.0, 1.0]][a[0]][a[1]])
        )
        assert combine(f1, f2, "sum").value_at((0, 1, 1, 0)) == 5.0
        assert combine(f1, f2, "product").value_at((0, 1, 1, 0)) == 6.0

    def test_against_dense_reference(self, rng):
        for trial in range(50):
            op = "sum" if trial % 2 else "product"
            s1 = tuple(sorted(rng.sample(range(4), rng.randrange(1, 3))))
            s2 = tuple(sorted(rng.sample(range(4), rng.randrange(1, 3))))
            doms = {v: rng.choice([2, 3]) for v in set(s1) | set(s2)}
            t1 = rand_table(rng, s1, tuple(doms[v] for v in s1), with_inf=op == "sum")
            t2 = rand_table(rng, s2, tuple(doms[v] for v in s2), with_inf=op == "sum")
            f = combine(DafsaFactor.from_table(t1), DafsaFactor.from_table(t2), op)
            f.check_partition(covering=False)
            for a in assignments(tuple(doms[v] for v in f.scope)):
                full = {v: a[i] for i, v in enumerate(f.scope)}
                lookup = [full[v] if v in full else 0 for v in range(5)]
                v1, v2 = t1.value_of(lookup), t2.value_of(lookup)
                want = v1 + v2 if op == "sum" else v1 * v2
                got = f.value_at(lookup)
                assert (got is None) == math.isinf(want)
                if got is not None:
                    assert got == pytest.approx(want, abs=1e-12)

    def test_conflicting_domains(self):
        a = DafsaFactor.from_table(table_from_feed((0,), (2,), lambda a: 1.0))
        b = DafsaFactor.from_table(table_from_feed((0,), (3,), lambda a: 1.0))
        with pytest.raises(FactorError):
            combine(a, b, "sum")

    def test_bad_op(self):
        f = demo_factor()
        with pytest.raises(FactorError):
            combine(f, f, "xor")


class TestProject:
    def test_against_dense_reference(self, rng):
        for trial in range(50):
            op = "min" if trial % 2 else "max"
            dims = tuple(rng.choice([2, 3]) for _ in range(rng.randrange(2, 4)))
            scope = tuple(range(len(dims)))
            t = rand_table(rng, scope, dims, with_inf=op == "min")
            f = DafsaFactor.from_table(t)
            var = rng.choice(scope)
            g, growth = project(f, var, op)
            assert len(growth) == 1
            pos = scope.index(var)
            fold = min if op == "min" else max
            for a in assignments(g.domains):
                cells = [
                    t.value_of(_splice(a, pos, x, scope)) for x in range(dims[pos])
                ]
                finite = [c for c in cells if not math.isinf(c)]
                want = fold(cells) if op == "max" else (fold(finite) if finite else None)
                assert g.value_at(_splice(a, pos, 0, scope)) == want

    def test_overlap_resolution_prefers_better(self):
        # both rows of x1 survive level removal; min must keep the lower value
        t = table_from_feed((0, 1), (2, 2), lambda a: float(a[1]))
        g, _ = project(DafsaFactor.from_table(t), 1, "min")
        assert [v for v, _ in g.entries] == [0.0]
        g2, _ = project(DafsaFactor.from_table(t), 1, "max")
        assert [v for v, _ in g2.entries] == [1.0]

    def test_var_not_in_scope(self):
        with pytest.raises(FactorError):
            project(demo_factor(), 9, "max")


def _splice(a, pos, x, scope):
    word = list(a[:pos]) + [x] + list(a[pos:])
    full = [0] * (max(scope) + 1)
    for i, v in enumerate(scope):
        full[v] = word[i]
    return full
