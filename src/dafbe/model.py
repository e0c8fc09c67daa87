"""Graphical models, elimination orderings, and the automaton-based solver.

A model is variables 0..n-1 with finite domains, a bag of dense or
sparse table factors, and a task: MAP (maximize the product of
nonnegative potentials) or WCSP (minimize the sum, with math.inf as hard
infeasibility).  ``bucket_elimination`` solves both as min-sum: MAP
potentials p enter the solver as costs -log p (0 becomes inf), so the
optimum is exp(-cost) and the keying epsilon is an absolute tolerance on
costs, that is, a relative tolerance on probabilities.  It eliminates
variables along an ordering, doing all factor work on value-keyed
automata.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import time

from . import factor as factor_ops
from .errors import ModelError, TimeLimit
from .factor import DafsaFactor, SparseFactor, TabularFactor
from .keying import DEFAULT_EPS, ndarray_numpy


class Task(enum.Enum):
    """MAP: product/max over probabilities. WCSP: sum/min over costs.

    ``identity``, ``combine`` and ``better`` are the task's own semantics,
    used to evaluate assignments and by the oracles; the automaton solver
    works on costs for both tasks (``GraphicalModel.cost_factors``).
    """

    MAP = enum.auto()
    WCSP = enum.auto()

    @property
    def identity(self) -> float:
        return 1.0 if self is Task.MAP else 0.0

    def combine(self, a: float, b: float) -> float:
        return a * b if self is Task.MAP else a + b

    def better(self, a: float, b: float) -> bool:
        """True if a strictly beats b."""
        return a > b if self is Task.MAP else a < b


@dataclasses.dataclass(frozen=True)
class GraphicalModel:
    n_vars: int
    domains: tuple[int, ...]
    factors: tuple[TabularFactor | SparseFactor, ...]
    task: Task

    def __post_init__(self):
        domains = tuple(self.domains)
        factors = tuple(self.factors)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "factors", factors)
        if self.n_vars != len(domains):
            raise ModelError(f"{self.n_vars} variables but {len(domains)} domain sizes")
        if any(k < 1 for k in domains):
            raise ModelError("domain sizes must be >= 1")
        for f in factors:
            for var, k in zip(f.scope, f.domains):
                if not 0 <= var < self.n_vars:
                    raise ModelError(f"factor scope variable {var} out of range")
                if k != domains[var]:
                    raise ModelError(
                        f"factor domain {k} for variable {var} != model domain {domains[var]}"
                    )
            if self.task is Task.MAP and not _finite_nonnegative(f.present_values()):
                raise ModelError("MAP factors must be finite and nonnegative")

    def primal_graph(self) -> list:
        """Adjacency sets: co-scoped variables are neighbors."""
        adj = [set() for _ in range(self.n_vars)]
        for f in self.factors:
            for i, u in enumerate(f.scope):
                for v in f.scope[i + 1 :]:
                    adj[u].add(v)
                    adj[v].add(u)
        return adj

    def cost_factors(self) -> tuple:
        """The factors as the costs ``bucket_elimination`` minimizes.

        WCSP factors are costs already.  A MAP potential p becomes -log p,
        with 0 becoming inf, so the maximal product is the exp(-cost) of
        the minimal sum.
        """
        if self.task is Task.WCSP:
            return self.factors
        return tuple(_neg_log_factor(f) for f in self.factors)

    def evaluate(self, assignment) -> float:
        """Task-combine of all factors at a full assignment."""
        out = self.task.identity
        for f in self.factors:
            out = self.task.combine(out, f.value_of(assignment))
        return out


def _finite_nonnegative(values) -> bool:
    """No value is negative or infinite (NaN never reaches a factor)."""
    np = ndarray_numpy(values)
    if np is not None:
        return not (np.isinf(values).any() or (values < 0).any())
    return all(0.0 <= v < math.inf for v in values)


def _neg_log(values):
    import numpy as np

    with np.errstate(divide="ignore"):
        return 0.0 - np.log(values)  # 0.0 - keeps -log 1 at +0.0


def _neg_log_factor(f: TabularFactor | SparseFactor) -> TabularFactor | SparseFactor:
    if isinstance(f, TabularFactor):
        return TabularFactor(f.scope, f.domains, _neg_log(f.values))
    costs = _neg_log([f.default, *f.exceptions.values()]).tolist()
    return SparseFactor(f.scope, f.domains, costs[0], dict(zip(f.exceptions, costs[1:])))


def _adjacency_masks(model: GraphicalModel) -> list:
    """The primal graph as int bitmasks: bit u of ``adj[v]`` is an edge."""
    adj = [0] * model.n_vars
    for f in model.factors:
        mask = 0
        for u in f.scope:
            mask |= 1 << u
        for u in f.scope:
            adj[u] |= mask
    return [m & ~(1 << v) for v, m in enumerate(adj)]


def _eliminate(adj: list, v: int) -> int:
    """Connect v's neighbours into a clique and drop v; returns them."""
    nb = adj[v]
    drop = 1 << v
    m = nb
    while m:
        low = m & -m
        m ^= low
        a = low.bit_length() - 1
        adj[a] = (adj[a] | nb) & ~(low | drop)
    return nb


def min_fill_ordering(model: GraphicalModel, weighted: bool = False) -> tuple:
    """Greedy fill-minimizing elimination ordering.

    Each step eliminates the variable whose remaining neighbors need the
    fewest missing edges to become a clique (weighted mode scores a
    missing edge by the product of its endpoint domain sizes), ties to the
    lowest id.  Variables are placed back to front, so the solver's
    last-to-first bucket sweep eliminates them in greedy order.

    Adjacency is kept as bitmasks over the remaining variables.  A
    variable v's fill is half the sum, over its neighbours a, of the
    weight of v's other neighbours that a is not adjacent to; weights are
    counted per domain-size group.  Eliminating x only changes the scores
    of its neighbours and of their neighbours, so only those are rescored.
    """
    adj = _adjacency_masks(model)
    doms = model.domains
    by_size = {}
    for v, k in enumerate(doms):
        by_size[k] = by_size.get(k, 0) | (1 << v)
    groups = tuple(by_size.items()) if weighted and len(by_size) > 1 else None
    # with one domain size k every missing edge weighs k * k: count them
    scale = doms[0] ** 2 if weighted and doms else 1

    def fill(v):
        nb = adj[v]
        total = 0
        m = nb
        if groups is None:
            while m:
                low = m & -m
                m ^= low
                total += (nb & adj[low.bit_length() - 1]).bit_count()
            deg = nb.bit_count()
            total = scale * (deg * (deg - 1) - total)
        else:
            w_nb = 0
            for k, g in groups:
                w_nb += k * (nb & g).bit_count()
            while m:
                low = m & -m
                m ^= low
                a = low.bit_length() - 1
                common = nb & adj[a]
                w = doms[a]
                for k, g in groups:
                    w += k * (common & g).bit_count()
                total += doms[a] * (w_nb - w)
        return total // 2  # every missing edge was counted from both ends

    score = [fill(v) for v in range(model.n_vars)]
    remaining = list(range(model.n_vars))
    order = [0] * model.n_vars
    for pos in range(model.n_vars - 1, -1, -1):
        best = min(remaining, key=score.__getitem__)  # first minimum: lowest id
        remaining.remove(best)
        order[pos] = best
        nb = _eliminate(adj, best)
        stale = nb
        m = nb
        while m:
            low = m & -m
            m ^= low
            stale |= adj[low.bit_length() - 1]
        while stale:
            low = stale & -stale
            stale ^= low
            v = low.bit_length() - 1
            score[v] = fill(v)
    return tuple(order)


def check_ordering(model: GraphicalModel, ordering) -> tuple:
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(model.n_vars)):
        raise ModelError(f"ordering must be a permutation of 0..{model.n_vars - 1}")
    return ordering


def induced_width(model: GraphicalModel, ordering) -> int:
    """Max neighbor count at elimination time, sweeping d last to first."""
    ordering = check_ordering(model, ordering)
    adj = _adjacency_masks(model)
    width = 0
    for v in reversed(ordering):
        width = max(width, _eliminate(adj, v).bit_count())
    return width


class Deadline:
    """Cooperative wall-clock limit, checked at factor-op granularity."""

    def __init__(self, seconds=None):
        self.expires = None if seconds is None else time.monotonic() + seconds

    def check(self):
        if self.expires is not None and time.monotonic() > self.expires:
            raise TimeLimit("time limit exceeded")


@dataclasses.dataclass
class SolveStats:
    induced_width: int = 0
    buckets_processed: int = 0
    messages: int = 0
    max_entry_count: int = 0
    max_automaton_states: int = 0
    peak_live_states: int = 0
    growth_samples: list = dataclasses.field(default_factory=list)
    wall_time: float = 0.0

    @property
    def growth_average(self):
        """Mean determinization growth (raw subset states / NFA states)."""
        ratios = [raw / nfa for nfa, raw in self.growth_samples if nfa > 0]
        if not ratios:
            return None
        return sum(ratios) / len(ratios)


@dataclasses.dataclass
class SolverResult:
    """``cost`` is the minimal sum the solver found (None from the
    oracles): the optimum itself for WCSP, -log of it for MAP, where it
    stays finite after ``optimum`` = exp(-cost) has underflowed to 0.0."""

    task: Task
    status: str  # "optimal" or "infeasible"
    optimum: float
    assignment: tuple | None
    ordering: tuple
    stats: SolveStats
    cost: float | None = None


def bucket_elimination(
    model: GraphicalModel,
    ordering=None,
    eps: float = DEFAULT_EPS,
    prune_infinite: bool = True,
    time_limit: float | None = None,
) -> SolverResult:
    """Exact solve by min-sum bucket elimination over value-keyed automata.

    The solver minimizes the sum of ``model.cost_factors()``.  Factors
    live in the bucket of their latest-in-ordering scope variable.
    Buckets are processed last to first: combine all but the bucket's last
    factor, then project the bucket variable out of their sum with the
    last one in one fused kernel walk, so the bucket's combined factor is
    never built (a one-factor bucket is projected alone); send the
    message to the bucket of its latest remaining variable (scalars fold
    straight into the optimum).  Each bucket records one growth sample.
    A forward pass then rebuilds an optimal assignment by trying each
    value of each variable against its bucket's functions, lowest value
    winning ties.  ``prune_infinite`` drops infinite-cost rows from the
    entries instead of keeping them as an inf entry; the answer is the
    same either way.

    A WCSP with no finite-cost assignment is ``"infeasible"``.  A MAP
    model reports the probability exp(-cost), and the cost itself, which
    stays exact where the probability underflows; when every assignment
    has probability 0 that is 0.0 (cost inf) at the all-zeros assignment,
    as brute force reports it.
    """
    t0 = time.monotonic()
    deadline = Deadline(time_limit)
    ordering = min_fill_ordering(model) if ordering is None else check_ordering(model, ordering)
    stats = SolveStats(induced_width=induced_width(model, ordering))
    pos_of = {v: i for i, v in enumerate(ordering)}
    n = model.n_vars

    def note_factor(f: DafsaFactor):
        stats.max_entry_count = max(stats.max_entry_count, f.entry_count)
        stats.max_automaton_states = max(stats.max_automaton_states, f.total_states)

    live_states = 0
    peak = 0
    buckets = [[] for _ in range(n)]
    optimum = 0.0
    infeasible = False

    def place(f: DafsaFactor):
        nonlocal live_states, peak, optimum, infeasible
        note_factor(f)
        if not f.keys:
            infeasible = True
            return
        if not f.scope:
            optimum += f.keys[0]
            return
        live_states += f.total_states
        peak = max(peak, live_states)
        buckets[max(pos_of[v] for v in f.scope)].append(f)

    for tab in model.cost_factors():
        place(DafsaFactor.from_table(tab, eps, prune_infinite=prune_infinite))
        if infeasible:
            break

    if not infeasible:
        for p in range(n - 1, -1, -1):
            deadline.check()
            bucket = buckets[p]
            if not bucket:
                continue
            stats.buckets_processed += 1
            combined = bucket[0]
            transient = 0  # states of the current fold intermediate
            for f in bucket[1:-1]:
                deadline.check()
                combined = factor_ops.combine(combined, f, "sum", eps)
                transient = combined.total_states
                peak = max(peak, live_states + transient)
            note_factor(combined)
            deadline.check()
            other = bucket[-1] if len(bucket) > 1 else None
            message, growth = factor_ops.project(combined, ordering[p], "min", other, eps)
            stats.growth_samples.extend(growth)
            stats.messages += 1
            peak = max(peak, live_states + transient + message.total_states)
            place(message)
            if infeasible:
                break

    assignment = None
    if not (infeasible or math.isinf(optimum)):
        assignment = [0] * n
        for p in range(n):
            deadline.check()
            var = ordering[p]
            best_v = 0
            best_score = None
            for v in range(model.domains[var]):
                assignment[var] = v
                score = 0.0
                for f in buckets[p]:
                    fv = f.value_at(assignment)
                    score += math.inf if fv is None else fv  # None: a pruned row
                if best_score is None or score < best_score:
                    best_score = score
                    best_v = v
            assignment[var] = best_v
        assignment = tuple(assignment)

    stats.peak_live_states = peak
    stats.wall_time = time.monotonic() - t0
    task = model.task
    if assignment is None:
        if task is Task.MAP:  # every assignment has probability 0
            return SolverResult(task, "optimal", 0.0, (0,) * n, ordering, stats, math.inf)
        return SolverResult(task, "infeasible", math.inf, None, ordering, stats, math.inf)
    cost = optimum
    if task is Task.MAP:
        optimum = math.exp(-cost)
    return SolverResult(task, "optimal", optimum, assignment, ordering, stats, cost)
