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
import operator
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
    variable's score is the weight of the missing pairs among its
    neighbours, where a pair {a, b} weighs w(a) w(b): w is the domain
    size in weighted mode and 1 otherwise.  One domain size k would weigh
    every pair k * k, which ranks alike, so then pairs are just counted.
    The weight of a vertex set is one popcount per domain-size group.

    Scores are computed once, then updated by the change each
    elimination makes.  Eliminating x, with neighbours N, adds the fill
    edges F: the pairs of N that are not adjacent.  Then
    - every variable but x adjacent to both ends of a fill edge {a, b}
      loses that pair's weight w(a) w(b);
    - every a in N loses its missing pairs through x, w(x) w(O), where O
      is a's neighbours outside N and x.  For each new neighbour b (a
      member of N that a was not adjacent to) it gains w(b) w(O - adj b),
      the pairs b misses in O; the pairs within N are all present after.
    No other score changes.  Two shortcuts are exact.  When x is
    simplicial (score 0), F is empty and only the through-x term is left.
    When x is also adjacent to every remaining variable, the rest is a
    clique, every score stays 0, and the tie rule places the rest in
    ascending id order.  The updates are integer arithmetic on the very
    scores rescoring from scratch gives, so the minima, their ties and
    the ordering are unchanged.
    """
    adj = _adjacency_masks(model)
    n = model.n_vars
    doms = model.domains
    by_size = {}
    for v, k in enumerate(doms):
        by_size[k] = by_size.get(k, 0) | (1 << v)
    if weighted and len(by_size) > 1:
        groups = tuple(by_size.items())
        omega = doms

        def weight(mask):
            return sum(k * (mask & g).bit_count() for k, g in groups)
    else:
        omega = (1,) * n
        weight = int.bit_count

    score = [0] * n
    for v, nb in enumerate(adj):
        total = 0
        m = nb
        while m:
            low = m & -m
            m ^= low
            a = low.bit_length() - 1
            total += omega[a] * weight(nb & ~(adj[a] | low))
        score[v] = total // 2  # every missing pair was counted from both ends

    remaining = list(range(n))
    order = [0] * n
    for pos in range(n - 1, -1, -1):
        x = min(remaining, key=score.__getitem__)  # first minimum: lowest id
        nb = adj[x]
        simplicial = score[x] == 0
        if simplicial and nb.bit_count() == pos:  # next to all pos others: a clique
            order[: pos + 1] = reversed(remaining)
            break
        remaining.remove(x)
        order[pos] = x
        xbit = 1 << x
        w_x = omega[x]
        m = nb
        while m:
            low = m & -m
            m ^= low
            a = low.bit_length() - 1
            adj_a = adj[a]
            outside = adj_a & ~(nb | xbit)
            delta = -w_x * weight(outside)
            if not simplicial:
                new = nb & ~(adj_a | low)
                while new:
                    lb = new & -new
                    new ^= lb
                    b = lb.bit_length() - 1
                    adj_b = adj[b]
                    delta += omega[b] * weight(outside & ~adj_b)
                    if b > a:  # fill edge {a, b}
                        w_ab = omega[a] * omega[b]
                        common = adj_a & adj_b  # x among them: its score is done
                        while common:
                            lc = common & -common
                            common ^= lc
                            score[lc.bit_length() - 1] -= w_ab
            score[a] += delta
        _eliminate(adj, x)
    return tuple(order)


def check_ordering(model: GraphicalModel, ordering) -> tuple:
    """The ordering as a tuple of ints, if it is a permutation of the
    variables; integer-like entries (numpy integers) are converted."""
    try:
        ordering = tuple(map(operator.index, ordering))
    except TypeError:
        raise ModelError("ordering must be a sequence of integer variable ids") from None
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
        """Mean determinization growth (raw subset states / NFA states).

        The solver removes only last levels, where no subset or set of
        pairs forms, so each of its samples has two equal counts and a
        solve with any sample reads 1.0.
        """
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
    time_limit: float | None = None,
) -> SolverResult:
    """Exact solve by min-sum bucket elimination over value-keyed automata.

    The solver minimizes the sum of ``model.cost_factors()``.  It names
    each variable by its position in the ordering before it compiles the
    tables (``renamed``), so every scope sorts by elimination position
    and a factor's last level is the variable eliminated first.  Every
    input factor and every message is first cut down to the variables it
    depends on (``DafsaFactor.on_support``), so it lives in the bucket of
    its last scope variable, and a constant folds straight into the
    optimum.  Buckets are processed last to first: combine all but the
    bucket's last factor, then project the bucket variable out of their
    sum with the last one in one fused kernel walk, so the bucket's
    combined factor is never built (a one-factor bucket is projected
    alone), and place the message.  The bucket variable is the last level
    of every factor in its bucket, so the solver only ever removes last
    levels.  A bucket that receives no factor is skipped; every other
    bucket records one growth sample.  A forward pass then rebuilds an
    optimal assignment by trying each value of each variable against its
    bucket's functions, lowest value winning ties, so a variable whose
    bucket is empty takes 0, and maps it back to the model's variable
    ids.  Infinite-cost rows are left out of every factor
    (``DafsaFactor.from_table``), so an assignment no entry covers
    scores inf.

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
    n = model.n_vars
    position = [0] * n  # variable id -> its name inside the solver
    for p, var in enumerate(ordering):
        position[var] = p
    domains = [model.domains[var] for var in ordering]

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
        f = f.on_support()
        note_factor(f)
        if not f.keys:
            infeasible = True
            return
        if not f.scope:
            optimum += f.keys[0]
            return
        live_states += f.total_states
        peak = max(peak, live_states)
        buckets[f.scope[-1]].append(f)

    for tab in model.cost_factors():
        place(DafsaFactor.from_table(tab.renamed(position), eps))
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
            message, growth = factor_ops.project(combined, p, "min", other, eps)
            stats.growth_samples.extend(growth)
            stats.messages += 1
            peak = max(peak, live_states + transient + message.total_states)
            place(message)
            if infeasible:
                break

    assignment = None
    if not (infeasible or math.isinf(optimum)):
        assignment = [0] * n  # by position
        for p in range(n):
            deadline.check()
            best_v = 0
            best_score = None
            for v in range(domains[p]):
                assignment[p] = v
                score = 0.0
                for f in buckets[p]:
                    fv = f.value_at(assignment)
                    score += math.inf if fv is None else fv  # None: an infinite-cost row
                if best_score is None or score < best_score:
                    best_score = score
                    best_v = v
            assignment[p] = best_v
        assignment = tuple(assignment[p] for p in position)

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
