"""Model layer: orderings, width, and the automaton-factor solver."""

import itertools
import math
import random

import numpy as np
import pytest

import dafbe.factor as factor_mod
from dafbe.errors import ModelError, TimeLimit
from dafbe.factor import DafsaFactor, SparseFactor, TabularFactor
from dafbe.model import (
    GraphicalModel,
    Task,
    bucket_elimination,
    check_ordering,
    induced_width,
    min_fill_ordering,
)
from dafbe.formats import parse_path
from dafbe.generate import random_micro_model
from dafbe.oracle import brute_force, tabular_be

from conftest import (dense_models, fixture_path, ignoring_table, micro_model, scoped_model,
                      table_from_feed)


def chain_model(n, task=Task.WCSP):
    factors = tuple(
        table_from_feed((i, i + 1), (2, 2), lambda a: float(a[0] ^ a[1]))
        for i in range(n - 1)
    )
    return GraphicalModel(n, (2,) * n, factors, task)


class TestGraphicalModel:
    def test_validation(self):
        t = table_from_feed((0,), (2,), lambda a: 1.0)
        with pytest.raises(ModelError):
            GraphicalModel(1, (2, 2), (t,), Task.MAP)  # domain count mismatch
        bad = table_from_feed((0,), (3,), lambda a: 1.0)
        with pytest.raises(ModelError):
            GraphicalModel(1, (2,), (bad,), Task.MAP)  # factor domain conflict
        with pytest.raises(ModelError):
            GraphicalModel(1, (2,), (table_from_feed((1,), (2,), lambda a: 1.0),), Task.MAP)

    def test_map_rejects_infinite_values(self):
        t = table_from_feed((0,), (2,), lambda a: math.inf if a[0] else 1.0)
        with pytest.raises(ModelError):
            GraphicalModel(1, (2,), (t,), Task.MAP)
        GraphicalModel(1, (2,), (t,), Task.WCSP)  # fine as a hard constraint

    def test_map_rejects_negative_values(self):
        t = table_from_feed((0,), (2,), lambda a: -0.5 if a[0] else 1.0)
        with pytest.raises(ModelError):
            GraphicalModel(1, (2,), (t,), Task.MAP)

    def test_cost_factors(self):
        dense = table_from_feed((0,), (3,), lambda a: [0.0, 1.0, 0.25][a[0]])
        sparse = SparseFactor((0, 1), (3, 2), 0.5, {(2, 1): 0.0})
        m = GraphicalModel(2, (3, 2), (dense, sparse), Task.MAP)
        dense_cost, sparse_cost = m.cost_factors()
        assert dense_cost.values.tolist() == [math.inf, 0.0, math.log(4.0)]
        assert math.copysign(1.0, dense_cost.values[1]) == 1.0  # -log 1 is +0.0
        assert sparse_cost.default == math.log(2.0)
        assert sparse_cost.exceptions == {(2, 1): math.inf}
        assert m.cost_factors() is m.cost_factors()  # -log is taken once per model
        w = GraphicalModel(2, (3, 2), (dense, sparse), Task.WCSP)
        assert w.cost_factors() == w.factors

    def test_primal_graph(self):
        m = chain_model(4)
        adj = m.primal_graph()
        assert adj[0] == {1} and adj[1] == {0, 2} and adj[3] == {2}

    def test_evaluate(self):
        m = chain_model(3)
        assert m.evaluate((0, 1, 1)) == 1.0
        assert m.evaluate((0, 1, 0)) == 2.0


class TestTask:
    def test_ops(self):
        assert Task.MAP.combine(2.0, 3.0) == 6.0
        assert Task.WCSP.combine(2.0, 3.0) == 5.0
        assert Task.MAP.better(3.0, 2.0) and Task.WCSP.better(2.0, 3.0)


def reference_min_fill(model, weighted=False):
    """The set-based min-fill the bitset version replaced, kept verbatim."""
    adj = model.primal_graph()
    remaining = set(range(model.n_vars))
    order = [0] * model.n_vars
    for pos in range(model.n_vars - 1, -1, -1):
        best_var = -1
        best_cost = None
        for v in sorted(remaining):
            nbrs = [u for u in adj[v] if u in remaining]
            cost = 0
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1 :]:
                    if b not in adj[a]:
                        cost += model.domains[a] * model.domains[b] if weighted else 1
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_var = v
        nbrs = [u for u in adj[best_var] if u in remaining]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        remaining.discard(best_var)
        order[pos] = best_var
    return tuple(order)


def reference_induced_width(model, ordering):
    """The set-based induced width the bitset version replaced."""
    adj = model.primal_graph()
    remaining = set(ordering)
    width = 0
    for v in reversed(ordering):
        nbrs = [u for u in adj[v] if u in remaining and u != v]
        width = max(width, len(nbrs))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        remaining.discard(v)
    return width


def fuzz_models():
    """200 random WCSPs of 0-39 variables over domains 2, 3 and 5."""
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(0, 40)
        domains = tuple(rng.choice([2, 2, 3, 5]) for _ in range(n))
        factors = []
        for _ in range(rng.randrange(0, 2 * n + 1)):
            scope = tuple(sorted(rng.sample(range(n), rng.randrange(1, min(n, 6) + 1))))
            dims = tuple(domains[v] for v in scope)
            factors.append(TabularFactor(scope, dims, np.zeros(math.prod(dims))))
        yield GraphicalModel(n, domains, tuple(factors), Task.WCSP)


class TestOrdering:
    def test_is_permutation(self):
        for seed in range(20):
            m = micro_model(seed)
            order = min_fill_ordering(m)
            assert sorted(order) == list(range(m.n_vars))

    def test_chain_width_one(self):
        m = chain_model(8)
        assert induced_width(m, min_fill_ordering(m)) == 1

    def test_cycle_width_two(self):
        factors = tuple(
            table_from_feed(tuple(sorted((i, (i + 1) % 5))), (2, 2), lambda a: 1.0)
            for i in range(5)
        )
        m = GraphicalModel(5, (2,) * 5, factors, Task.MAP)
        assert induced_width(m, min_fill_ordering(m)) == 2

    def test_greedy_matches_exhaustive_on_small_models(self):
        # min-fill is a heuristic; on these sizes it should land on the
        # true minimum width found by trying every ordering
        for seed in range(12):
            m = micro_model(seed)
            if m.n_vars > 6:
                continue
            best = min(
                induced_width(m, p) for p in itertools.permutations(range(m.n_vars))
            )
            assert induced_width(m, min_fill_ordering(m)) == best

    def test_weighted_mode_still_valid(self):
        for seed in range(8):
            m = micro_model(seed)
            order = min_fill_ordering(m, weighted=True)
            assert sorted(order) == list(range(m.n_vars))

    def test_bitset_ordering_matches_set_reference(self):
        for trial, m in enumerate(fuzz_models()):
            for weighted in (False, True):
                order = min_fill_ordering(m, weighted=weighted)
                assert order == reference_min_fill(m, weighted), (trial, weighted)
                assert induced_width(m, order) == reference_induced_width(m, order)

    def test_dense_graphs_match_reference(self):
        for trial, m in enumerate(dense_models()):
            for weighted in (False, True):
                order = min_fill_ordering(m, weighted)
                assert order == reference_min_fill(m, weighted), (trial, weighted)

    def test_min_fill_width_is_the_replayed_width(self):
        # the dense models end in the clique shortcut, where the width is
        # read off the clique's size
        for trial, m in enumerate(itertools.chain(fuzz_models(), dense_models())):
            for weighted in (False, True):
                order, width = min_fill_ordering(m, weighted, with_width=True)
                assert order == min_fill_ordering(m, weighted), (trial, weighted)
                assert width == induced_width(m, order), (trial, weighted)
            solved = bucket_elimination(m).stats.induced_width
            assert solved == induced_width(m, min_fill_ordering(m)), trial

    def test_given_ordering_replays_its_width(self):
        rng = random.Random(28)
        for m in dense_models():
            ordering = shuffled_ordering(rng, m.n_vars)
            want = induced_width(m, ordering)
            assert bucket_elimination(m, ordering).stats.induced_width == want
            assert bucket_elimination(m, ordering, width=want).stats.induced_width == want

    @pytest.mark.parametrize(
        "domains, scopes",
        [
            ((), []),
            ((3,), []),
            ((3,), [(0,)]),
            ((2, 3), []),
            ((2, 3), [(0, 1)]),
            ((3, 2, 5, 2, 3), [(0, 1, 2, 3, 4)]),  # complete, one scope
            ((2, 5, 3, 2), [(a, b) for a in range(4) for b in range(a + 1, 4)]),  # complete, pairs
            ((2, 3, 2, 5, 2, 3, 2), [(1, 2), (2, 4), (1, 4, 5)]),  # 0, 3 and 6 isolated
            ((2, 3, 5, 2), [(0,), (2,), (3,)]),  # every variable isolated
            ((2, 3, 5, 3, 2, 5), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),  # a cycle
        ],
        ids=["n0", "n1", "n1-unary", "n2", "n2-edge", "complete", "complete-pairs",
             "isolated", "all-isolated", "cycle"],
    )
    def test_small_graphs_match_reference(self, domains, scopes):
        m = scoped_model(domains, scopes)
        for weighted in (False, True):
            assert min_fill_ordering(m, weighted) == reference_min_fill(m, weighted), weighted

    def test_check_ordering_rejects_non_permutation(self):
        m = chain_model(3)
        with pytest.raises(ModelError):
            check_ordering(m, (0, 1))
        with pytest.raises(ModelError):
            check_ordering(m, (0, 1, 1))

    def test_ordering_entries_must_be_integers(self):
        m = parse_path(fixture_path("hand.wcsp"))
        good = tuple(range(m.n_vars))
        bad = (0, 1.0, *good[2:])
        for call in (check_ordering, induced_width, bucket_elimination, tabular_be):
            with pytest.raises(ModelError, match="integer variable ids"):
                call(m, bad)
        # integer-like entries are taken as ints
        ordering = check_ordering(m, np.arange(m.n_vars))
        assert ordering == good and all(type(v) is int for v in ordering)
        assert bucket_elimination(m, np.arange(m.n_vars)).ordering == good
        assert tabular_be(m, np.arange(m.n_vars)).ordering == good


def ignoring_model(rng, task):
    """A micro model whose tables each read a random part of their scope,
    hard cells (inf costs, zero probabilities) included."""
    n = rng.randint(1, 6)
    domains = tuple(rng.randint(1, 3) for _ in range(n))
    if task is Task.MAP:
        def draw():
            return 0.0 if rng.random() < 0.1 else rng.choice([0.25, 0.5, 1.0, rng.random()])
    else:
        def draw():
            return math.inf if rng.random() < 0.1 else float(rng.randint(0, 4))
    factors = []
    for _ in range(rng.randint(1, 6)):
        scope = tuple(sorted(rng.sample(range(n), rng.randint(1, min(4, n)))))
        support = {var for var in scope if rng.random() < 0.5}
        factors.append(ignoring_table(scope, tuple(domains[v] for v in scope), support, draw))
    return GraphicalModel(n, domains, tuple(factors), task)


def shuffled_model(rng, task):
    """A random model with domain sizes 1-4: sparse WCSP tables with hard
    rows, or dense MAP tables with zeros, unary and zero-scope ones among them."""
    n = rng.randint(2, 6)
    domains = tuple(rng.randint(1, 4) for _ in range(n))
    factors = []
    for _ in range(rng.randint(1, 6)):
        scope = tuple(sorted(rng.sample(range(n), min(n, rng.choice((0, 1, 1, 2, 3, 4))))))
        doms = tuple(domains[v] for v in scope)
        cells = list(itertools.product(*(range(k) for k in doms)))
        if task is Task.WCSP:
            exceptions = {word: math.inf if rng.random() < 0.15 else float(rng.randint(0, 5))
                          for word in rng.sample(cells, rng.randint(0, len(cells)))}
            factors.append(SparseFactor(scope, doms, float(rng.randint(0, 3)), exceptions))
        else:
            values = [0.0 if rng.random() < 0.1 else rng.choice([0.25, 0.5, 1.0, rng.random()])
                      for _ in cells]
            factors.append(TabularFactor(scope, doms, np.array(values)))
    return GraphicalModel(n, domains, tuple(factors), task)


def shuffled_ordering(rng, n):
    """A random ordering of ``n`` >= 2 variables that is not 0..n-1."""
    while True:
        ordering = tuple(rng.sample(range(n), n))
        if ordering != tuple(range(n)):
            return ordering


class TestRenaming:
    # the solver names each variable by its position in the ordering

    def test_renamed_tables_keep_their_values(self):
        rng = random.Random(16)
        for trial in range(200):
            m = shuffled_model(rng, (Task.MAP, Task.WCSP)[trial % 2])
            names = shuffled_ordering(rng, m.n_vars)
            for f in m.factors:
                g = f.renamed(names)
                assert type(g) is type(f) and list(g.scope) == sorted(names[v] for v in f.scope)
                assert g.domains == tuple(m.domains[names.index(v)] for v in g.scope)
                for word in itertools.product(*(range(k) for k in m.domains)):
                    moved = [0] * m.n_vars
                    for var, v in enumerate(word):
                        moved[names[var]] = v
                    assert g.value_of(moved) == f.value_of(word), (trial, f.scope, names)

    def test_random_models_and_orderings(self):
        rng = random.Random(17)
        for trial in range(300):
            m = shuffled_model(rng, (Task.MAP, Task.WCSP)[trial % 2])
            ordering = shuffled_ordering(rng, m.n_vars)
            want = brute_force(m)
            r = bucket_elimination(m, ordering)
            assert r.status == want.status, trial
            assert r.ordering == ordering
            assert r.stats.induced_width == induced_width(m, ordering)
            if want.status == "optimal":
                assert math.isclose(r.optimum, want.optimum, rel_tol=1e-9), trial
                assert math.isclose(m.evaluate(r.assignment), r.optimum, rel_tol=1e-9), trial

    def test_every_projection_removes_the_last_variable(self, monkeypatch):
        # the bucket variable is the deepest level of every factor in its
        # bucket, so the kernels only ever remove last levels
        project = factor_mod.project
        calls = 0

        def checking_project(f, var, op, other=None, *args):
            nonlocal calls
            calls += 1
            union = set(f.scope) | set(() if other is None else other.scope)
            assert var == max(union), (var, f.scope, other and other.scope)
            return project(f, var, op, other, *args)

        monkeypatch.setattr(factor_mod, "project", checking_project)
        rng = random.Random(18)
        for trial in range(500):  # tail buckets project nothing, so more models
            m = shuffled_model(rng, (Task.MAP, Task.WCSP)[trial % 2])
            bucket_elimination(m, shuffled_ordering(rng, m.n_vars))
        assert calls > 300


class TestBucketElimination:
    def test_hand_computed_chain(self):
        m = chain_model(3)
        r = bucket_elimination(m)
        assert r.status == "optimal"
        assert r.optimum == 0.0
        assert r.assignment in ((0, 0, 0), (1, 1, 1))

    def test_golden_micro(self):
        m = micro_model(3, Task.WCSP)
        r = bucket_elimination(m, min_fill_ordering(m))
        b = brute_force(m)
        assert r.status == b.status == "optimal"
        assert r.optimum == pytest.approx(b.optimum, abs=1e-9)

    def test_optimum_invariant_under_ordering(self):
        rnd = random.Random(5)
        for seed in range(10):
            m = micro_model(seed)
            base = bucket_elimination(m).optimum
            for _ in range(3):
                perm = list(range(m.n_vars))
                rnd.shuffle(perm)
                r = bucket_elimination(m, tuple(perm))
                assert r.optimum == pytest.approx(base, rel=1e-9, abs=1e-9)
                assert m.evaluate(r.assignment) == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_infeasible_wcsp(self):
        t = table_from_feed((0, 1), (2, 2), lambda a: math.inf)
        m = GraphicalModel(2, (2, 2), (t,), Task.WCSP)
        r = bucket_elimination(m)
        assert r.status == "infeasible"
        assert r.assignment is None and math.isinf(r.optimum)

    def test_map_keeps_hard_zeros(self):
        # a zero-probability row must never be selected while a positive
        # completion exists
        t = table_from_feed((0, 1), (2, 2), lambda a: 0.0 if a == (0, 0) else 1.0 + a[1])
        m = GraphicalModel(2, (2, 2), (t,), Task.MAP)
        r = bucket_elimination(m)
        assert r.optimum == 2.0 and m.evaluate(r.assignment) == 2.0

    def test_stats_populated(self):
        m = micro_model(2)
        r = bucket_elimination(m)
        s = r.stats
        assert s.induced_width == induced_width(m, r.ordering)
        assert s.buckets_processed == m.n_vars
        assert s.messages >= 0
        assert s.max_entry_count >= 1
        assert s.max_automaton_states >= 1
        assert s.peak_live_states >= s.max_automaton_states
        assert all(nfa >= 1 and raw >= 1 for nfa, raw in s.growth_samples)
        assert s.wall_time >= 0.0

    @staticmethod
    def bucket_sizes(monkeypatch, feed):
        """(factors in each processed bucket, last bucket first, the result)
        of the model of ``feed`` on five binary variables, along 0..4."""
        scopes = [(3, 4), (2, 4), (4,), (1, 3), (0, 1)]
        m = GraphicalModel(5, (2,) * 5, tuple(table_from_feed(sc, (2,) * len(sc), feed)
                                              for sc in scopes), Task.WCSP)
        sizes = []
        combines = 0
        combine, project = factor_mod.combine, factor_mod.project

        def counting_combine(*args):
            nonlocal combines
            combines += 1
            return combine(*args)

        def counting_project(f, var, op, other=None, *args):
            nonlocal combines
            sizes.append(combines + (1 if other is None else 2))
            combines = 0
            return project(f, var, op, other, *args)

        with monkeypatch.context() as patch:
            patch.setattr(factor_mod, "combine", counting_combine)
            patch.setattr(factor_mod, "project", counting_project)
            r = bucket_elimination(m, (0, 1, 2, 3, 4))
        s = r.stats
        assert len(s.growth_samples) == s.messages == s.buckets_processed == len(sizes)
        assert all(nfa > 0 and raw > 0 for nfa, raw in s.growth_samples)
        assert s.peak_live_states >= s.max_automaton_states
        assert r.optimum == brute_force(m).optimum
        assert m.evaluate(r.assignment) == r.optimum
        return sizes, r

    def test_one_growth_sample_per_bucket(self, monkeypatch):
        # every cell of every table has its own value and every message
        # depends on all its variables, so the buckets of 4, 3, 2, 1 and
        # 0 hold 3, 2, 1, 2 and 1 factors: one projection per one-factor
        # bucket and one fused step per other bucket, each recording one
        # sample, except that the one factor of bucket 0, the lowest,
        # holds every variable left: its least value is the optimum's
        # last term and the solver stops before it
        sizes, r = self.bucket_sizes(monkeypatch, lambda a: float(1 + sum(v * 3**i for i, v in enumerate(a))))
        assert sizes == [3, 2, 1, 2]
        assert r.optimum == 5.0
        # (3 a0 + a0 + a1) % 4 = a1: each binary table reads only its later
        # variable and the unary one on 4 is the constant 0, so on their
        # supports the buckets of 4, 3 and 1 hold 2, 1 and 1 factors, those
        # of 2 and 0 none, and every message is a constant; bucket 1 is
        # then the lowest, so its one factor is not projected
        sizes, r = self.bucket_sizes(monkeypatch, lambda a: float((3 * a[0] + sum(a)) % 4))
        assert sizes == [2, 1]
        assert r.optimum == 0.0 and r.assignment == (0,) * 5

    def test_tables_that_ignore_part_of_their_scope(self, monkeypatch):
        splices = 0
        on_support = DafsaFactor.on_support

        def counting(f):
            nonlocal splices
            g = on_support(f)
            splices += g is not f
            return g

        monkeypatch.setattr(DafsaFactor, "on_support", counting)
        rng = random.Random(15)
        for trial in range(1000):
            m = ignoring_model(rng, (Task.MAP, Task.WCSP)[trial % 2])
            want = brute_force(m)
            r = bucket_elimination(m)
            assert r.status == want.status, trial
            assert math.isclose(r.optimum, want.optimum, rel_tol=1e-9), trial
            if r.assignment is not None:
                assert math.isclose(m.evaluate(r.assignment), r.optimum, rel_tol=1e-9), trial
        assert splices > 2000

    def test_constant_message_folds_into_the_optimum(self):
        # the unary table on 2 has minimum 1, a constant message; then
        # the xor table is the one factor of the lowest bucket, 1, so its
        # minimum, min over x0 and x1 of (x0 xor x1) + 1 = 1, is added
        # without projecting it, and its least string of that value sets
        # x0 = x1 = 0
        xor = table_from_feed((0, 1), (2, 2), lambda a: float(a[0] ^ a[1]) + 1)
        unary = table_from_feed((2,), (2,), lambda a: 3.0 - 2 * a[0])
        m = GraphicalModel(3, (2, 2, 2), (xor, unary), Task.WCSP)
        r = bucket_elimination(m, (0, 1, 2))
        assert r.optimum == 2.0 and r.assignment == (0, 0, 1)
        s = r.stats
        assert s.messages == s.buckets_processed == len(s.growth_samples) == 1

    def test_decode_is_the_least_optimal_assignment(self):
        # the assignment is the lexicographically least optimal one, read
        # in elimination order, whether the forward pass or the tail's
        # least string sets a variable
        rng = random.Random(19)
        for trial in range(220):
            task = (Task.MAP, Task.WCSP)[trial % 2]
            while True:
                m = random_micro_model(rng, task)
                if math.prod(m.domains) <= 3000:
                    break
            ordering = tuple(rng.sample(range(m.n_vars), m.n_vars))
            factors = m.cost_factors()
            costs = {a: sum(f.value_of(a) for f in factors)
                     for a in itertools.product(*(range(k) for k in m.domains))}
            best = min(costs.values())
            r = bucket_elimination(m, ordering)
            if math.isinf(best):
                continue
            want = min((a for a, c in costs.items() if math.isclose(c, best, rel_tol=1e-9, abs_tol=1e-9)),
                       key=lambda a: [a[var] for var in ordering])
            assert r.assignment == want, (trial, ordering)

    def test_decode_of_a_deep_tail(self):
        # one function of 1,200 variables, zero only at one tuple: the
        # solver eliminates nothing and decodes the tuple in one search
        rng = random.Random(20)
        n = 1200
        word = tuple(rng.randrange(2) for _ in range(n))
        t = SparseFactor(tuple(range(n)), (2,) * n, 1.0, {word: 0.0})
        r = bucket_elimination(GraphicalModel(n, (2,) * n, (t,), Task.WCSP), tuple(range(n)))
        assert r.optimum == 0.0 and r.assignment == word
        assert r.stats.buckets_processed == r.stats.messages == 0

    def test_growth_average(self):
        m = micro_model(4)
        s = bucket_elimination(m).stats
        if s.growth_samples:
            avg = s.growth_average
            assert avg is not None and avg >= 0.0

    def test_time_limit(self):
        m = micro_model(6)
        with pytest.raises(TimeLimit):
            bucket_elimination(m, time_limit=0.0)

    def test_scalar_only_model(self):
        # factor over one variable, one variable total: single bucket
        t = table_from_feed((0,), (3,), lambda a: float(a[0]))
        m = GraphicalModel(1, (3,), (t,), Task.WCSP)
        r = bucket_elimination(m)
        assert r.optimum == 0.0 and r.assignment == (0,)

    def test_unconstrained_variable(self):
        # variable 1 appears in no factor; recovery must still assign it
        t = table_from_feed((0,), (2,), lambda a: float(a[0]))
        m = GraphicalModel(2, (2, 2), (t,), Task.WCSP)
        r = bucket_elimination(m)
        assert r.status == "optimal"
        assert len(r.assignment) == 2 and r.optimum == 0.0
