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
import functools
import math
import operator
import time

from . import factor as factor_ops
from .errors import ModelError, TimeLimit
from .factor import DafsaFactor, SparseFactor, TabularFactor
from .keying import DEFAULT_EPS


class Task(enum.Enum):
    """MAP: product/max over probabilities. WCSP: sum/min over costs.

    ``identity``, ``combine`` and ``better`` are the task's own semantics,
    used to evaluate assignments; every engine, the oracles too, works on
    costs for both tasks (``GraphicalModel.cost_factors``).
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
        the minimal sum.  The MAP tables are computed once per model, so
        every call returns the same tuple.
        """
        if self.task is Task.WCSP:
            return self.factors
        return self._neg_log_factors

    @functools.cached_property  # the frozen model's fields do not change
    def _neg_log_factors(self) -> tuple:
        return tuple(_neg_log_factor(f) for f in self.factors)

    def evaluate(self, assignment) -> float:
        """Task-combine of all factors at a full assignment."""
        out = self.task.identity
        for f in self.factors:
            out = self.task.combine(out, f.value_of(assignment))
        return out


def _finite_nonnegative(values) -> bool:
    """No value is negative or infinite (NaN never reaches a factor)."""
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


def min_fill_ordering(model: GraphicalModel, weighted: bool = False, *,
                      with_width: bool = False):
    """Greedy fill-minimizing elimination ordering; with ``with_width``,
    the pair (ordering, its induced width).

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

    The fill-edge decrements of one elimination are summed in bit-sliced
    counters: mask j holds the variables whose decrement has bit j set.
    A fill edge adds its common neighbours at each set bit of w(a) w(b),
    carrying like a ripple-carry adder, so it costs a few mask operations
    whatever the number of common neighbours.  One pass over the masks
    then takes 2^j off each variable in mask j.

    The induced width is read off as the ordering forms: the largest
    neighbour count an elimination sees, and at the clique shortcut the
    clique's size less one, which its first variable sees.  It is the
    width ``induced_width`` replays for this ordering.
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
    width = 0
    # the bit-sliced counters; a decrement is at most the weight of every
    # pair, so it has fewer than ``levels`` bits
    levels = (max(omega, default=1) ** 2 * n * n).bit_length()
    cnt = [0] * levels
    for pos in range(n - 1, -1, -1):
        x = min(remaining, key=score.__getitem__)  # first minimum: lowest id
        nb = adj[x]
        degree = nb.bit_count()
        simplicial = score[x] == 0
        if simplicial and degree == pos:  # next to all pos others: a clique
            order[: pos + 1] = reversed(remaining)
            width = max(width, pos)
            break
        width = max(width, degree)
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
                    if b > a:  # fill edge {a, b}: w_ab off each common neighbour
                        common = adj_a & adj_b & ~xbit  # x's score is done
                        w_ab = omega[a] * omega[b]
                        j = 0
                        while w_ab:
                            if w_ab & 1:  # add common at bit j, carrying upwards
                                carry = common
                                i = j
                                while carry:
                                    c = cnt[i]
                                    cnt[i] = c ^ carry
                                    carry &= c
                                    i += 1
                            w_ab >>= 1
                            j += 1
            score[a] += delta
        if not simplicial:
            for j in range(levels):
                m = cnt[j]
                if m:
                    cnt[j] = 0
                    step = 1 << j
                    while m:
                        low = m & -m
                        m ^= low
                        score[low.bit_length() - 1] -= step
        _eliminate(adj, x)
    return (tuple(order), width) if with_width else tuple(order)


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

        Every sample the solver records is a fold's, the distinct pairs
        it walked, twice, since folding the last level forms no subset or
        set of pairs; so a solve with any sample reads 1.0.  Only buckets a kernel walk
        eliminates record one: tail buckets, eliminated without a walk,
        record none, so a solve that is all tail reads None.
        """
        ratios = [raw / nfa for nfa, raw in self.growth_samples if nfa > 0]
        if not ratios:
            return None
        return sum(ratios) / len(ratios)


@dataclasses.dataclass
class SolverResult:
    """``cost`` is the least sum of ``cost_factors()`` the engine found:
    the optimum itself for WCSP, -log of it for MAP, where it stays
    finite after ``optimum`` = exp(-cost) has underflowed to 0.0.  Every
    engine reports it; None is a result built by hand without one."""

    task: Task
    status: str  # "optimal" or "infeasible"
    optimum: float
    assignment: tuple | None
    ordering: tuple
    stats: SolveStats
    cost: float | None = None

    @classmethod
    def from_cost(cls, model: GraphicalModel, cost: float, assignment, ordering, stats) -> SolverResult:
        """The result of least ``cost``, reached at ``assignment``.

        With no finite cost a WCSP is ``"infeasible"``, and a MAP model,
        whose every assignment has probability 0, is optimal at 0.0 at
        the all-zeros assignment.  Otherwise the optimum is exp(-cost)
        for MAP and the cost itself for WCSP.
        """
        task = model.task
        if math.isinf(cost):
            if task is Task.WCSP:
                return cls(task, "infeasible", math.inf, None, ordering, stats, math.inf)
            return cls(task, "optimal", 0.0, (0,) * model.n_vars, ordering, stats, math.inf)
        optimum = math.exp(-cost) if task is Task.MAP else cost
        return cls(task, "optimal", optimum, tuple(assignment), ordering, stats, cost)


def bucket_elimination(
    model: GraphicalModel,
    ordering=None,
    eps: float = DEFAULT_EPS,
    time_limit: float | None = None,
    width: int | None = None,
) -> SolverResult:
    """Exact solve by min-sum bucket elimination over value-keyed automata.

    Without an ordering the solver takes min-fill's, with the induced
    width min-fill found as it ordered.  A given ordering's width is
    ``width`` when the caller has it from ``min_fill_ordering(...,
    with_width=True)``, and is otherwise replayed by ``induced_width``.

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
    combined factor is never built (a one-factor bucket's one factor is
    folded against the constant ``SCALAR``), and place the message.  The bucket variable is the last level
    of every factor in its bucket, so the solver only ever removes last
    levels.  A bucket that receives no factor is skipped.

    Once a bucket holds one factor and no lower bucket holds anything,
    that factor holds every variable left, and eliminating them one by
    one would only carry its least value down: ``project`` keeps its
    input's keys, so each message of this tail is, at each prefix, the
    least key below it.  The solver stops there and adds the factor's
    first key to the optimum, at the point where the tail's constant
    would have been added.  So tail buckets are eliminated without a
    kernel walk, and only the buckets a kernel walk eliminates count in
    ``buckets_processed`` and ``messages`` and record a growth sample.

    The tail's variables take the lexicographically least string of that
    least value (``DafsaFactor.least_string``), which is what the
    sequential pass below would pick on the tail's messages; a tail
    variable outside the factor's scope takes 0.  A forward pass then
    rebuilds the rest of an optimal assignment by trying each value of
    each later variable against its bucket's functions, lowest value
    winning ties; a variable whose bucket is empty takes 0 without trying
    any, so a huge domain no function reads costs nothing.  It then maps
    the assignment back to the model's variable ids.  Infinite-cost rows
    are left out of every factor (``DafsaFactor.from_table``), so an
    assignment no entry covers scores inf.

    A WCSP with no finite-cost assignment is ``"infeasible"``.  A MAP
    model reports the probability exp(-cost), and the cost itself, which
    stays exact where the probability underflows; when every assignment
    has probability 0 that is 0.0 (cost inf) at the all-zeros assignment,
    as brute force reports it.
    """
    t0 = time.monotonic()
    deadline = Deadline(time_limit)
    if ordering is None:
        ordering, width = min_fill_ordering(model, with_width=True)
    else:
        ordering = check_ordering(model, ordering)
        if width is None:
            width = induced_width(model, ordering)
    stats = SolveStats(induced_width=width)
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
    lowest = n  # the lowest bucket holding a factor
    optimum = 0.0
    infeasible = False

    def place(f: DafsaFactor):
        nonlocal live_states, peak, lowest, optimum, infeasible
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
        last = f.scope[-1]
        buckets[last].append(f)
        lowest = min(lowest, last)

    for tab in model.cost_factors():
        place(DafsaFactor.from_table(tab.renamed(position), eps))
        if infeasible:
            break

    tail = -1  # the bucket whose one factor holds every variable left
    if not infeasible:
        for p in range(n - 1, -1, -1):
            deadline.check()
            bucket = buckets[p]
            if not bucket:
                continue
            if len(bucket) == 1 and lowest == p:  # its minimum is the rest's
                optimum += bucket[0].keys[0]
                tail = p
                break
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

    cost = math.inf if infeasible else optimum
    assignment = None
    if cost < math.inf:
        assignment = [0] * n  # by position
        if tail >= 0:  # the tail's variables: the least string of the least value
            f = buckets[tail][0]
            for p, v in zip(f.scope, f.least_string()):
                assignment[p] = v
        for p in range(tail + 1, n):
            deadline.check()
            if not buckets[p]:  # every value scores 0: it keeps 0
                continue
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
    return SolverResult.from_cost(model, cost, assignment, ordering, stats)
