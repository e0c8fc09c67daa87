"""Factors stay in the shared form between kernel calls.

The solver reads only ``keys`` and ``shared`` of the factors it builds,
so with the ``split`` kernel made to fail it must still solve everything
and give the same answers.  The ``entries`` read off a kernel result on
demand must equal what ``from_table`` compiles from the dense table of
the same function.
"""

import glob
import itertools
import math
import os
import random

import numpy as np

import dafbe.factor as factor_mod
from dafbe import formats
from dafbe.factor import PARTNER, DafsaFactor, TabularFactor, combine, project
from dafbe.model import bucket_elimination
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
    """``f``'s value, inf where a row is pruned."""
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
            # both operands pruned alike, so that the reference prunes as they do
            prune = op == "min" and rng.random() < 0.5
            f, g = (DafsaFactor.from_table(rand_factor(rng, s, doms, op == "max").to_table(),
                                           prune_infinite=prune) for s in (s1, s2))
            fn = ops[combine_op]
            both = combine(f, g, combine_op)
            want = dense(both.scope, both.domains, lambda a: fn(at(f, a), at(g, a)))
            assert entry_bytes(both) == entry_bytes(
                DafsaFactor.from_table(want, prune_infinite=prune)), (trial, "combine")

            pick = min if op == "min" else max
            var = rng.choice(s1)
            for other, full in ((None, f), (g, both)):
                got, _ = project(f, var, op, other)

                def best(a, full=full):
                    return pick(at(full, {**dict(enumerate(a)), var: v}) for v in range(doms[var]))

                want = dense(got.scope, got.domains, best)
                assert entry_bytes(got) == entry_bytes(
                    DafsaFactor.from_table(want, prune_infinite=prune)), (trial, op, other is None)
