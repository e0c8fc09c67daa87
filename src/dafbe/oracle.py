"""Independent correctness oracles: exhaustive search and dense-table BE.

Both minimize the sum of ``model.cost_factors()``, as the automaton
solver does, and report their least cost; they work straight on numpy
tables and share nothing with the automaton pipeline beyond the model
types, so agreement between the three engines is meaningful evidence.
numpy is imported on the first oracle call, not with this module, so a
solve that never runs an oracle never loads it.  Both refuse oversized
instances instead of degrading, checking their budgets before densifying
a sparse factor or allocating a table; ``tabular_be`` additionally
reports its peak table cells, the dense-memory baseline the automaton
solver is measured against.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import TYPE_CHECKING

from .errors import BudgetExceeded
from .model import (
    Deadline,
    GraphicalModel,
    SolveStats,
    SolverResult,
    check_ordering,
    induced_width,
    min_fill_ordering,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_MAX_ASSIGNMENTS = 10**6
DEFAULT_MAX_CELLS = 10**7


@dataclasses.dataclass(frozen=True)
class OracleBudget:
    max_assignments: int = DEFAULT_MAX_ASSIGNMENTS
    max_cells: int = DEFAULT_MAX_CELLS


@dataclasses.dataclass
class TabularStats(SolveStats):
    peak_table_cells: int = 0


def _joint_table(model: GraphicalModel, budget: OracleBudget) -> np.ndarray:
    total = math.prod(model.domains) if model.n_vars else 1
    if total > budget.max_assignments:
        raise BudgetExceeded(f"{total} assignments exceed budget {budget.max_assignments}")
    import numpy as np

    joint = np.zeros(tuple(model.domains))
    for f in model.cost_factors():
        shape = [1] * model.n_vars
        for var, k in zip(f.scope, f.domains):
            shape[var] = k
        # scope is sorted and tables are last-variable-fastest, so a plain
        # reshape lines the axes up
        joint = joint + f.values.reshape(shape)
    return joint


def brute_force(model: GraphicalModel, budget: OracleBudget = OracleBudget()) -> SolverResult:
    """Enumerate every assignment; ties go to the lowest-lex assignment."""
    import numpy as np

    t0 = time.monotonic()
    joint = _joint_table(model, budget)
    # argmin returns the first index among ties, and C-order flat index
    # order is lexicographic assignment order
    idx = int(np.argmin(joint))
    assignment = tuple(int(v) for v in np.unravel_index(idx, joint.shape))
    stats = SolveStats(wall_time=time.monotonic() - t0)
    return SolverResult.from_cost(model, float(joint.flat[idx]), assignment, tuple(range(model.n_vars)), stats)


def tabular_be(
    model: GraphicalModel,
    ordering=None,
    budget: OracleBudget = OracleBudget(),
    time_limit: float | None = None,
) -> SolverResult:
    """Bucket elimination on dense numpy tables.

    Same contract as the automaton solver (same tie-breaking, same
    infeasibility rules), implemented with broadcast sums and axis
    minima over the cost tables.  Tracks the peak number of
    simultaneously live table cells, counting bucket contents kept for
    assignment recovery.
    """
    import numpy as np

    t0 = time.monotonic()
    deadline = Deadline(time_limit)
    ordering = min_fill_ordering(model) if ordering is None else check_ordering(model, ordering)
    stats = TabularStats(induced_width=induced_width(model, ordering))
    pos_of = {v: i for i, v in enumerate(ordering)}
    n = model.n_vars

    # bucket items are (scope sorted by ordering position, ndarray)
    live_cells = 0
    peak = 0
    buckets = [[] for _ in range(n)]
    cost = 0.0

    def fits(cells):
        # checked before a table is allocated, never after
        if cells > budget.max_cells:
            raise BudgetExceeded(f"table of {cells} cells exceeds budget {budget.max_cells}")

    def place(scope, table):
        nonlocal live_cells, peak, cost
        if not scope:
            cost += float(table.reshape(()))
            return
        live_cells += table.size
        peak = max(peak, live_cells)
        if live_cells > budget.max_cells:
            raise BudgetExceeded(f"{live_cells} live cells exceed budget {budget.max_cells}")
        buckets[max(pos_of[v] for v in scope)].append((scope, table))

    for f in model.cost_factors():
        fits(f.size)
        place(f.scope, f.values.reshape(f.domains))

    if cost < math.inf:
        for p in range(n - 1, -1, -1):
            deadline.check()
            bucket = buckets[p]
            if not bucket:
                continue
            scope, table = bucket[0]
            for oscope, otable in bucket[1:]:
                deadline.check()
                merged = sorted(set(scope) | set(oscope))
                fits(math.prod(model.domains[v] for v in merged))
                scope_pos = {v: i for i, v in enumerate(merged)}
                sa = [1] * len(merged)
                for v in scope:
                    sa[scope_pos[v]] = model.domains[v]
                sb = [1] * len(merged)
                for v in oscope:
                    sb[scope_pos[v]] = model.domains[v]
                a = table.reshape(sa)
                b = otable.reshape(sb)
                table = a + b
                scope = tuple(merged)
                peak = max(peak, live_cells + table.size)
            axis = scope.index(ordering[p])
            message = np.min(table, axis=axis)
            peak = max(peak, live_cells + table.size + message.size)
            new_scope = tuple(v for v in scope if v != ordering[p])
            place(new_scope, message)
            if cost == math.inf:
                break

    assignment = [0] * n
    for p in range(n if cost < math.inf else 0):  # no finite cost: no assignment
        deadline.check()
        var = ordering[p]
        best_v = 0
        best_score = None
        for v in range(model.domains[var]):
            assignment[var] = v
            score = 0.0
            for scope, table in buckets[p]:
                score += float(table[tuple(assignment[u] for u in scope)])
            if best_score is None or score < best_score:
                best_score = score
                best_v = v
        assignment[var] = best_v

    stats.peak_table_cells = peak
    stats.wall_time = time.monotonic() - t0
    return SolverResult.from_cost(model, cost, assignment, ordering, stats)
