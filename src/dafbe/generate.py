"""Seeded random-instance generators for tests and benchmarks.

Micro models stay inside the brute-force budget so all three engines can
be cross-checked.  High-redundancy models are the workload the automaton
representation is built for: wide scopes whose tables hold very few
distinct values (a sparse set of exception tuples over a constant
default), pushing redundancy toward 1 while the induced width grows.
"""

from __future__ import annotations

import math
import random

from .model import GraphicalModel, Task, min_fill_ordering, induced_width
from .factor import TabularFactor

MICRO_MAX_JOINT = 10**6


def random_micro_model(rng: random.Random, task: Task, hard: bool | None = None) -> GraphicalModel:
    """Small random instance: n <= 12, domains <= 4, <= 12 factors, arity <= 3.

    ``hard`` sprinkles hard constraints (zero cells for MAP, inf cells for
    WCSP); None picks randomly.  The joint space stays within the
    brute-force budget.
    """
    import numpy as np

    if hard is None:
        hard = rng.random() < 0.5
    while True:
        n = rng.randint(1, 12)
        domains = [rng.randint(2, 4) for _ in range(n)]
        if math.prod(domains) <= MICRO_MAX_JOINT:
            break
    n_factors = rng.randint(1, 12)
    factors = []
    for _ in range(n_factors):
        arity = rng.randint(1, min(3, n))
        scope = tuple(sorted(rng.sample(range(n), arity)))
        dims = tuple(domains[v] for v in scope)
        size = math.prod(dims)
        if task is Task.MAP:
            values = [0.5 + 0.5 * rng.random() for _ in range(size)]
            if hard:
                for i in range(size):
                    if rng.random() < 0.12:
                        values[i] = 0.0
        else:
            values = [float(rng.randint(0, 9)) for _ in range(size)]
            if hard:
                for i in range(size):
                    if rng.random() < 0.15:
                        values[i] = math.inf
        factors.append(TabularFactor(scope, dims, np.asarray(values)))
    return GraphicalModel(n, tuple(domains), tuple(factors), task)


def high_redundancy_model(
    rng: random.Random,
    n_vars: int = 30,
    arity: int = 6,
    n_factors: int = 12,
    costs=(1.0, 2.0),
    n_exceptions: int = 3,
) -> GraphicalModel:
    """Binary WCSP whose factors are constant 0 except a few costed tuples.

    Per-factor redundancy is at least 1 - (len(costs)+1)/2^arity (0.953
    for the defaults), and the sparse tables keep every automaton small no
    matter how wide the elimination gets.
    """
    import numpy as np

    factors = []
    for _ in range(n_factors):
        scope = tuple(sorted(rng.sample(range(n_vars), arity)))
        dims = tuple([2] * arity)
        values = np.zeros(2**arity)
        for _ in range(n_exceptions):
            values[rng.randrange(2**arity)] = rng.choice(costs)
        factors.append(TabularFactor(scope, dims, values))
    return GraphicalModel(n_vars, tuple([2] * n_vars), tuple(factors), Task.WCSP)


def model_in_width_band(
    seed: int,
    lo: int,
    hi: int,
    n_vars: int = 30,
    arity: int = 6,
    n_factors: int = 12,
    max_tries: int = 200,
) -> GraphicalModel:
    """High-redundancy model whose min-fill induced width lands in [lo, hi]."""
    rng = random.Random(seed)
    for _ in range(max_tries):
        model = high_redundancy_model(rng, n_vars=n_vars, arity=arity, n_factors=n_factors)
        width = induced_width(model, min_fill_ordering(model))
        if lo <= width <= hi:
            return model
    raise RuntimeError(f"no width-{lo}..{hi} instance found in {max_tries} tries")
