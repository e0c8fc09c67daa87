"""Factors stay in the shared form between kernel calls.

The solver reads only ``keys`` and ``shared`` of the factors it builds,
so with the ``split`` kernel made to fail it must still solve everything
and give the same answers.  ``from_table`` compiles each table straight
into the shared form, so the solve path also runs without ``product``
and ``join``.  The ``entries`` read off a kernel result on
demand must equal what ``from_table`` compiles from the dense table of
the same function.  The states of each level of a kernel result are one
run of ids, which ``DafsaFactor.on_support`` relies on.
"""

import glob
import itertools
import math
import os
import random
from array import array

import numpy as np

import dafbe.factor as factor_mod
from dafbe import formats, generate
from dafbe.automata import _levels
from dafbe.factor import PARTNER, DafsaFactor, TabularFactor, combine, project
from dafbe.model import Task, bucket_elimination
from dafbe.oracle import brute_force

from conftest import FIXTURES, flat, micro_model
from test_factor_reference import VARS, rand_factor, rand_scope


def answers(models):
    return [(r.status, r.optimum, r.cost, r.assignment) for r in map(bucket_elimination, models)]


def test_solve_never_splits_a_factor(monkeypatch):
    models = [formats.parse_path(p) for p in sorted(glob.glob(os.path.join(FIXTURES, "*")))]
    micro = [micro_model(seed) for seed in range(20)]
    want = answers(models + micro)

    def refuse(*args):
        raise AssertionError("the solve split a factor into entries")

    monkeypatch.setattr(factor_mod.kernels, "split", refuse)
    got = answers(models + micro)
    assert got == want
    for model, (status, optimum, _, _) in zip(micro, got[len(models):]):
        oracle = brute_force(model)
        assert status == oracle.status
        assert math.isclose(optimum, oracle.optimum, rel_tol=1e-9, abs_tol=1e-12)


def test_solve_runs_on_three_kernels(monkeypatch):
    # compile_sorted, combine_entries and project_entries: no set algebra
    # (product), no join of entries and no split
    models = [formats.parse_path(p) for p in sorted(glob.glob(os.path.join(FIXTURES, "*")))]
    models += [micro_model(seed, Task.WCSP) for seed in range(20)]
    # generated WCSP files: their functions parse as a default plus exceptions
    models += [formats.parse_wcsp(formats.write_wcsp(generate.high_redundancy_model(random.Random(seed))))
               for seed in range(3)]
    want = answers(models)

    for name in ("product", "join", "split"):
        def refuse(*args, name=name):
            raise AssertionError(f"the solve called {name}")

        monkeypatch.setattr(factor_mod.kernels, name, refuse)
    assert answers(models) == want


def entry_bytes(f):
    return f.scope, f.domains, tuple((v, flat(d.parts)) for v, d in f.entries)


def dense(scope, domains, value_of):
    """The TabularFactor of ``value_of(assignment)`` over ``scope``."""
    values = []
    for word in itertools.product(*(range(k) for k in domains)):
        assignment = [0] * VARS
        for var, v in zip(scope, word):
            assignment[var] = v
        values.append(value_of(assignment))
    return TabularFactor(scope, domains, np.array(values, dtype=float))


def at(f, assignment):
    """``f``'s value, inf where ``f`` leaves the row out."""
    v = f.value_at(assignment)
    return math.inf if v is None else v


class TestEntriesMatchDenseReference:
    def test_random_factors(self):
        rng = random.Random(20261102)
        ops = {"sum": lambda a, b: a + b, "product": lambda a, b: a * b}
        for trial in range(240):
            op = ("min", "max")[trial % 2]
            combine_op = PARTNER[op]
            doms = [rng.randrange(1, 4) for _ in range(VARS)]
            s1 = rand_scope(rng, "any")
            s2 = rand_scope(rng, ("any", "disjoint", "nested", "equal")[trial // 2 % 4], s1)
            f, g = (DafsaFactor.from_table(rand_factor(rng, s, doms, op == "max").to_table())
                    for s in (s1, s2))
            fn = ops[combine_op]
            both = combine(f, g, combine_op)
            want = dense(both.scope, both.domains, lambda a: fn(at(f, a), at(g, a)))
            assert entry_bytes(both) == entry_bytes(DafsaFactor.from_table(want)), (trial, "combine")

            pick = min if op == "min" else max
            var = rng.choice(s1)
            for other, full in ((None, f), (g, both)):
                got, _ = project(f, var, op, other)

                def best(a, full=full):
                    return pick(at(full, {**dict(enumerate(a)), var: v}) for v in range(doms[var]))

                want = dense(got.scope, got.domains, best)
                assert entry_bytes(got) == entry_bytes(
                    DafsaFactor.from_table(want)), (trial, op, other is None)


def assert_levels_are_runs(shared, length):
    """Each level's states are one id run, level ``l + 1`` starting at the
    first child of level ``l``'s first state: what ``on_support`` reads
    the levels by."""
    t_off, t_sym, t_dst, term = shared
    lev = _levels(t_off, t_dst, 0)
    assert lev == sorted(lev) and lev[0] == 0 and -1 not in lev, lev
    if not t_sym:  # a lone root: the empty function or a scalar
        assert len(lev) == 1
        return
    assert lev[-1] == length
    first = 0
    for lv in range(length):
        nxt = t_dst[t_off[first]]
        assert lev[nxt] == lv + 1 and lev[nxt - 1] == lv, (lv, lev)
        first = nxt


def rand_rows(rng, dom):
    """Random ``compile_sorted`` arguments: sorted rows, labels 0-3 or -1
    (left out), and a default label, -1 or 0-3."""
    words = sorted({tuple(rng.randrange(k) for k in dom) for _ in range(rng.randrange(0, 12))})
    digits = array("i", [v for w in words for v in w])
    labels = array("i", [rng.randrange(-1, 4) for _ in words])
    return digits, len(words), len(dom), dom, labels, rng.randrange(-1, 4)


def test_levels_are_id_runs(both):
    rng = random.Random(20261115)
    doms = [(), (1,), (2,), (1, 3), (3, 1, 2), (2, 2, 2), (4, 2, 3), (2, 1, 2, 3), (2, 2, 2, 2, 2)]
    for trial in range(300):
        dom = rng.choice(doms)
        shared, labels = both("compile_sorted", *rand_rows(rng, dom))
        assert_levels_are_runs(shared, len(dom))
        for lvl in range(len(dom)):
            got, _, _ = both("project_entries", shared, dom, lvl)
            assert_levels_are_runs(got, len(dom) - 1)
        # a second operand on a random part of the scope
        in_b = [rng.random() < 0.6 for _ in dom]
        dom_b = tuple(k for k, inside in zip(dom, in_b) if inside)
        other, other_labels = both("compile_sorted", *rand_rows(rng, dom_b))
        pairs = len(labels) * len(other_labels)
        pair_labels = [rng.randrange(5) for _ in range(pairs)]
        for fold in (False, True) if dom else (False,):
            got, _, _ = both("combine_entries", shared, other, dom, [True] * len(dom), in_b,
                             pair_labels, fold)
            assert_levels_are_runs(got, len(dom) - fold)
