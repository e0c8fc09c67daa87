"""Graphical models, elimination orderings, and the automaton-based solver.

A model is variables 0..n-1 with finite domains, a bag of dense or
sparse table factors, and a task: MAP (maximize the product) or WCSP
(minimize the sum, with math.inf as hard infeasibility).  ``bucket_elimination`` solves
it exactly by eliminating variables along an ordering, doing all factor
work on value-keyed automata.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import time

import numpy as np

from . import factor as factor_ops
from .errors import ModelError, TimeLimit
from .factor import DafsaFactor, SparseFactor, TabularFactor
from .keying import DEFAULT_EPS


class Task(enum.Enum):
    """MAP: product/max over probabilities. WCSP: sum/min over costs."""

    MAP = ("product", "max")
    WCSP = ("sum", "min")

    @property
    def combine_op(self) -> str:
        return self.value[0]

    @property
    def project_op(self) -> str:
        return self.value[1]

    @property
    def identity(self) -> float:
        return 1.0 if self is Task.MAP else 0.0

    def combine(self, a: float, b: float) -> float:
        return factor_ops._combine_values(self.combine_op, a, b)

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
            if self.task is Task.MAP and np.isinf(f.present_values()).any():
                raise ModelError("MAP factors cannot contain infinity")

    def primal_graph(self) -> list:
        """Adjacency sets: co-scoped variables are neighbors."""
        adj = [set() for _ in range(self.n_vars)]
        for f in self.factors:
            for i, u in enumerate(f.scope):
                for v in f.scope[i + 1 :]:
                    adj[u].add(v)
                    adj[v].add(u)
        return adj

    def evaluate(self, assignment) -> float:
        """Task-combine of all factors at a full assignment."""
        out = self.task.identity
        for f in self.factors:
            out = self.task.combine(out, f.value_of(assignment))
        return out


def min_fill_ordering(model: GraphicalModel, weighted: bool = False) -> tuple:
    """Greedy fill-minimizing elimination ordering.

    Each step eliminates the variable whose remaining neighbors need the
    fewest missing edges to become a clique (weighted mode scores a
    missing edge by the product of its endpoint domain sizes), ties to the
    lowest id.  Variables are placed back to front, so the solver's
    last-to-first bucket sweep eliminates them in greedy order.
    """
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


def check_ordering(model: GraphicalModel, ordering) -> tuple:
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(model.n_vars)):
        raise ModelError(f"ordering must be a permutation of 0..{model.n_vars - 1}")
    return ordering


def induced_width(model: GraphicalModel, ordering) -> int:
    """Max neighbor count at elimination time, sweeping d last to first."""
    ordering = check_ordering(model, ordering)
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
    task: Task
    status: str  # "optimal" or "infeasible"
    optimum: float
    assignment: tuple | None
    ordering: tuple
    stats: SolveStats


def bucket_elimination(
    model: GraphicalModel,
    ordering=None,
    eps: float = DEFAULT_EPS,
    prune_infinite: bool | None = None,
    time_limit: float | None = None,
) -> SolverResult:
    """Exact solve by bucket elimination over value-keyed automata.

    Factors live in the bucket of their latest-in-ordering scope variable.
    Buckets are processed last to first: combine everything in the bucket,
    project the bucket variable out, send the message to the bucket of its
    latest remaining variable (scalars fold straight into the optimum).
    A forward pass then rebuilds an optimal assignment by trying each
    value of each variable against its bucket's functions, lowest value
    winning ties.  ``prune_infinite`` defaults to the task convention:
    drop infinity rows for WCSP, keep (forbid) them for MAP.
    """
    t0 = time.monotonic()
    deadline = Deadline(time_limit)
    ordering = min_fill_ordering(model) if ordering is None else check_ordering(model, ordering)
    if prune_infinite is None:
        prune_infinite = model.task is Task.WCSP
    task = model.task
    stats = SolveStats(induced_width=induced_width(model, ordering))
    pos_of = {v: i for i, v in enumerate(ordering)}
    n = model.n_vars

    def note_factor(f: DafsaFactor):
        stats.max_entry_count = max(stats.max_entry_count, f.entry_count)
        for _, d in f.entries:
            stats.max_automaton_states = max(stats.max_automaton_states, d.state_count)

    live_states = 0
    peak = 0
    buckets = [[] for _ in range(n)]
    optimum = task.identity
    infeasible = False

    def place(f: DafsaFactor):
        nonlocal live_states, peak, optimum, infeasible
        note_factor(f)
        if not f.entries:
            infeasible = True
            return
        if not f.scope:
            optimum = task.combine(optimum, f.entries[0][0])
            return
        live_states += f.total_states
        peak = max(peak, live_states)
        buckets[max(pos_of[v] for v in f.scope)].append(f)

    for tab in model.factors:
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
            for f in bucket[1:]:
                deadline.check()
                combined = factor_ops.combine(combined, f, task.combine_op, eps)
                transient = combined.total_states
                peak = max(peak, live_states + transient)
            note_factor(combined)
            deadline.check()
            message, growth = factor_ops.project(combined, ordering[p], task.project_op, eps)
            stats.growth_samples.extend(growth)
            stats.messages += 1
            peak = max(peak, live_states + transient + message.total_states)
            place(message)
            if infeasible:
                break

    if infeasible or (task is Task.WCSP and math.isinf(optimum)):
        stats.peak_live_states = peak
        stats.wall_time = time.monotonic() - t0
        return SolverResult(task, "infeasible", math.inf, None, ordering, stats)

    assignment = [0] * n
    for p in range(n):
        deadline.check()
        var = ordering[p]
        best_v = 0
        best_score = None
        for v in range(model.domains[var]):
            assignment[var] = v
            score = task.identity
            for f in buckets[p]:
                fv = f.value_at(assignment)
                if fv is None:
                    fv = math.inf  # pruned row: only reachable in WCSP mode
                score = task.combine(score, fv)
            if best_score is None or task.better(score, best_score):
                best_score = score
                best_v = v
        assignment[var] = best_v

    stats.peak_live_states = peak
    stats.wall_time = time.monotonic() - t0
    return SolverResult(task, "optimal", optimum, tuple(assignment), ordering, stats)
