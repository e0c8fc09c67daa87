"""Epsilon-keyed value sets.

Factor values are floats; two values closer than ``eps`` are treated as
the same key so that near-duplicates produced by floating-point combine
steps share one automaton.  Clustering is a single sorted scan: a value
opens a new cluster when it sits more than ``eps`` above the current
cluster's representative, and every member maps to that representative
(the cluster's smallest value).  Infinity is its own key.  Repeated
values never open a cluster, so the scan only needs the distinct ones.
The scan is also the labeller: ``from_values`` hands each input value the
index of its key, so the factors compile and combine from those labels
and never look a value up again; ``key`` is the one-value lookup.  Every
caller hands in a list, so keying is pure Python and never loads numpy.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right

from .errors import FactorError

DEFAULT_EPS = 1e-10


class ValueKeySet:
    """Immutable set of representatives for epsilon-equal float values."""

    __slots__ = ("eps", "reps", "has_infinity", "labels")

    def __init__(self, eps: float = DEFAULT_EPS, reps=(), has_infinity: bool = False):
        if not (eps >= 0.0) or math.isinf(eps) or math.isnan(eps):
            raise FactorError(f"eps must be a finite nonnegative float, got {eps}")
        self.eps = eps
        self.reps = tuple(reps)
        self.has_infinity = has_infinity
        self.labels = None  # set by ``from_values``

    @classmethod
    def from_values(cls, values, eps: float = DEFAULT_EPS) -> "ValueKeySet":
        """Cluster ``values``; finite representatives come out sorted.

        The result's ``labels`` gives each value, in input order, the
        index in ``reps`` of its key, and -1 for infinity, through a dict
        over the distinct values.  ``values`` is any iterable of numbers;
        it is listed once, in pure Python.
        """
        values = list(map(float, values))
        distinct = sorted(set(values))  # a set keeps the first of equal values
        if any(map(math.isnan, distinct)):
            raise FactorError("NaN factor value")
        if distinct and distinct[0] == -math.inf:
            raise FactorError("-inf factor value")
        has_inf = bool(distinct) and distinct[-1] == math.inf
        if has_inf:
            distinct.pop()
        reps = []
        cluster = []  # each distinct value's index in reps
        for v in distinct:
            if not reps or v - reps[-1] > eps:
                reps.append(v)
            cluster.append(len(reps) - 1)
        distinct.append(math.inf)  # infinity, after the finite values
        cluster.append(-1)
        labels = array("i", map(dict(zip(distinct, cluster)).__getitem__, values))
        out = cls(eps, reps, has_inf)
        out.labels = labels
        return out

    def key(self, value: float) -> float:
        """Map a value to its representative.

        A value within ``eps`` of two adjacent representatives keys to the
        lower one.  Values must come from the population the set was built
        on (or land within eps of some representative).
        """
        value = float(value)
        if math.isnan(value):
            raise FactorError("NaN factor value")
        if math.isinf(value):
            if value < 0:
                raise FactorError("-inf factor value")
            if not self.has_infinity:
                raise FactorError("infinity not present in this key set")
            return math.inf
        reps = self.reps
        i = bisect_right(reps, value)
        if i and value - reps[i - 1] <= self.eps:
            return reps[i - 1]
        if i < len(reps) and reps[i] - value <= self.eps:
            return reps[i]
        raise FactorError(f"value {value!r} not within eps of any representative")

    def __len__(self):
        return len(self.reps) + (1 if self.has_infinity else 0)

    def __iter__(self):
        yield from self.reps
        if self.has_infinity:
            yield math.inf

    def __repr__(self):
        inf = ", inf" if self.has_infinity else ""
        return f"ValueKeySet(eps={self.eps}, reps={list(self.reps)}{inf})"


def redundancy(values, eps: float = DEFAULT_EPS, total: int | None = None) -> float:
    """1 - distinct/total over epsilon-keyed values; 0.0 for empty input.

    ``total`` is the number of cells the values stand for, by default
    ``len(values)``; a caller passing only the values that occur in a
    larger table gives the table's size.
    """
    values = list(values)
    if total is None:
        total = len(values)
    if total == 0:
        return 0.0
    return 1.0 - len(ValueKeySet.from_values(values, eps)) / total
