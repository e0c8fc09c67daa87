"""MAP solved as min-sum over -log p: the automaton solver agrees with
the oracles, which minimize the same costs, at every probability scale.

Potentials are log-uniform over [1e-6, 1], so the optima here lie
between 1e-226 and 1e-14: far below any absolute keying tolerance on
probabilities.
The automaton solver is compared with ``tabular_be`` on every instance and
with ``brute_force`` where the joint space fits its budget, by a relative
tolerance on optima and costs, and its assignment must reproduce its
optimum as a product of potentials (``GraphicalModel.evaluate``).
"""

import dataclasses
import json
import math
import random

import numpy as np

from dafbe import cli, oracle
from dafbe.cli import _certify
from dafbe.errors import BudgetExceeded
from dafbe.factor import TabularFactor
from dafbe.formats import parse_uai, record_to_json, result_record, write_uai
from dafbe.model import GraphicalModel, Task, bucket_elimination, min_fill_ordering

from conftest import bench_generators

RTOL = 1e-6

def _potentials(rng, size, zeros, keep):
    """Log-uniform over [1e-6, 1]; with ``zeros`` about one cell in eight
    is 0, but never cell ``keep``."""
    values = [10.0 ** rng.uniform(-6.0, 0.0) for _ in range(size)]
    if zeros:
        values = [0.0 if i != keep and rng.random() < 0.125 else v for i, v in enumerate(values)]
    return np.asarray(values)


def _pairwise_model(rng, n, edges, zeros):
    """Binary unary and pairwise factors.  The cells of one planted
    assignment are never zeroed, so the optimum stays positive."""
    planted = [rng.randrange(2) for _ in range(n)]
    factors = [
        TabularFactor((v,), (2,), _potentials(rng, 2, zeros, planted[v])) for v in range(n)
    ]
    factors += [
        TabularFactor((u, v), (2, 2), _potentials(rng, 4, zeros, 2 * planted[u] + planted[v]))
        for u, v in edges
    ]
    return GraphicalModel(n, (2,) * n, tuple(factors), Task.MAP)


def chain(rng, n):
    return _pairwise_model(rng, n, [(v, v + 1) for v in range(n - 1)], rng.random() < 0.5)


def grid(rng, rows=5, cols=6):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return _pairwise_model(rng, rows * cols, edges, rng.random() < 0.5)


def _families():
    map_grid = bench_generators().map_grid
    yield from (
        ("small-chain", 40, lambda rng, i: chain(rng, 14)),
        ("chain", 80, lambda rng, i: chain(rng, rng.randint(30, 40))),
        ("grid", 60, lambda rng, i: grid(rng)),
        ("map-grid", 20, lambda rng, i: parse_uai(map_grid(rng, i, rows=5, cols=6))),
    )


def _disagreements(model):
    ordering = min_fill_ordering(model)
    got = bucket_elimination(model, ordering)
    refs = {"tabular": oracle.tabular_be(model, ordering)}
    try:
        refs["brute"] = oracle.brute_force(model)
    except BudgetExceeded:
        pass
    out = []
    for name, ref in refs.items():
        # an optimum that underflowed to 0 would agree with anything
        assert ref.status == "optimal" and ref.optimum > 1e-300, (name, ref.optimum)
        if got.status != "optimal" or not math.isclose(got.optimum, ref.optimum, rel_tol=RTOL):
            out.append(f"{name} {ref.optimum!r} vs dafsa {got.status} {got.optimum!r}")
        elif not math.isclose(got.cost, ref.cost, rel_tol=1e-9, abs_tol=1e-9):
            out.append(f"{name} cost {ref.cost!r} vs dafsa {got.cost!r}")
    if got.status == "optimal":
        value = model.evaluate(got.assignment)
        if not math.isclose(value, got.optimum, rel_tol=RTOL):
            out.append(f"assignment scores {value!r}, not {got.optimum!r}")
    return out, "brute" in refs


def test_dafsa_agrees_with_oracles_at_every_probability_scale():
    failures = []
    counts = {}
    brute_checked = 0
    for name, size, make in _families():
        for i in range(size):
            model = make(random.Random(f"{name}:{i}"), i)
            bad, brute = _disagreements(model)
            brute_checked += brute
            failures += [f"{name} {i}: {line}" for line in bad]
        counts[name] = size
    assert sum(counts.values()) >= 200
    assert brute_checked == counts["small-chain"]
    assert not failures, failures[:10]


def test_all_zero_model_is_optimal_at_zero():
    # every assignment has probability 0: optimal 0.0 at all zeros, as
    # brute force reports it, never "infeasible"
    factors = (
        TabularFactor((0, 1), (2, 3), np.zeros(6)),
        TabularFactor((1, 2), (3, 2), np.full(6, 0.5)),
    )
    model = GraphicalModel(3, (2, 3, 2), factors, Task.MAP)
    for solve in (bucket_elimination, oracle.brute_force, oracle.tabular_be):
        got = solve(model)
        assert (got.status, got.optimum, got.assignment, got.cost) == ("optimal", 0.0, (0, 0, 0), math.inf)


def _underflowing_chain():
    # a 200-variable chain with potentials 1e-3..4e-3: the optimum is
    # about 1e-500, below the smallest double, but its cost is not
    rng = random.Random(1)
    n = 200
    factors = tuple(
        TabularFactor((v, v + 1), (2, 2), np.array([rng.uniform(1e-3, 4e-3) for _ in range(4)]))
        for v in range(n - 1)
    )
    return GraphicalModel(n, (2,) * n, factors, Task.MAP)


def test_cost_survives_underflow():
    model = _underflowing_chain()
    result = bucket_elimination(model)
    assert result.optimum == 0.0
    want = -sum(math.log(f.value_of(result.assignment)) for f in model.factors)
    assert 1000 < want < math.inf
    assert math.isclose(result.cost, want, rel_tol=1e-9)
    record = result_record("chain.uai", result, "dafsa")
    assert record["optimum"] == 0.0 and record["cost"] == result.cost
    assert json.loads(record_to_json(record))["cost"] == result.cost


def test_certification_compares_costs():
    # every assignment of the chain has probability 0.0 as a double, so
    # only a comparison of costs tells the optimum from the rest
    model = _underflowing_chain()
    result = bucket_elimination(model)
    assert model.evaluate(result.assignment) == result.optimum == 0.0
    assert _certify(model, result)
    flipped = [1 - v for v in result.assignment]  # cost 1212.53 against 1148.07
    assert not _certify(model, dataclasses.replace(result, assignment=tuple(flipped)))
    for var in range(model.n_vars):
        one_flip = list(result.assignment)
        one_flip[var] = 1 - one_flip[var]  # costs 1148.08 to 1150.51
        assert not _certify(model, dataclasses.replace(result, assignment=tuple(one_flip)))


def test_check_all_compares_costs_below_the_smallest_double(tmp_path, capsys, monkeypatch):
    # every engine reports 0.0 on the chain, so only costs tell them apart
    model = _underflowing_chain()
    got = bucket_elimination(model)
    table = oracle.tabular_be(model)
    assert math.isclose(table.cost, got.cost, rel_tol=1e-9)
    assert _certify(model, table)

    def liar(model, budget=None):
        # self-consistent: the true cost of a worse assignment
        flipped = (1 - got.assignment[0], *got.assignment[1:])
        cost = sum(f.value_of(flipped) for f in model.cost_factors())
        return dataclasses.replace(got, optimum=0.0, assignment=flipped, cost=cost)

    monkeypatch.setattr(cli.oracle, "brute_force", liar)
    path = tmp_path / "chain.uai"
    path.write_text(write_uai(model), encoding="ascii")
    code = cli.main(["solve", "--engine", "check-all", "--format", "json-lines", str(path)])
    rec = json.loads(capsys.readouterr().out)
    assert code == 2 and rec["status"] == "disagreement"
    assert [line.split(" ")[:2] for line in rec["disagreement"]] == [["brute:", "cost"]]


def test_cost_only_in_map_records():
    wcsp = GraphicalModel(1, (2,), (TabularFactor((0,), (2,), np.array([3.0, 1.0])),), Task.WCSP)
    result = bucket_elimination(wcsp)
    assert result.cost == result.optimum == 1.0
    assert "cost" not in result_record("x.wcsp", result, "dafsa")
    zero = GraphicalModel(1, (2,), (TabularFactor((0,), (2,), np.zeros(2)),), Task.MAP)
    record = result_record("zero.uai", bucket_elimination(zero), "dafsa")
    assert record["optimum"] == 0.0 and record["cost"] is None  # cost inf: no finite cost
    assert result_record("x.uai", oracle.brute_force(zero), "brute")["cost"] is None
