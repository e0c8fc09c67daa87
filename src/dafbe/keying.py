"""Epsilon-keyed value sets.

Factor values are floats; two values closer than ``eps`` are treated as
the same key so that near-duplicates produced by floating-point combine
steps share one automaton.  Clustering is a single sorted scan: a value
opens a new cluster when it sits more than ``eps`` above the current
cluster's representative, and every member maps to that representative
(the cluster's smallest value).  Infinity is its own key.  Repeated
values never open a cluster, so the scan only needs the distinct ones.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right

from .errors import FactorError

DEFAULT_EPS = 1e-10


class ValueKeySet:
    """Immutable set of representatives for epsilon-equal float values."""

    __slots__ = ("eps", "reps", "has_infinity")

    def __init__(self, eps: float = DEFAULT_EPS, reps=(), has_infinity: bool = False):
        if not (eps >= 0.0) or math.isinf(eps) or math.isnan(eps):
            raise FactorError(f"eps must be a finite nonnegative float, got {eps}")
        self.eps = eps
        self.reps = tuple(reps)
        self.has_infinity = has_infinity

    @classmethod
    def from_values(cls, values, eps: float = DEFAULT_EPS) -> "ValueKeySet":
        """Cluster ``values``; finite representatives come out sorted.

        An ndarray (a dense table's cells) is reduced to its distinct
        values by ``np.unique`` before the scan; any other iterable is
        scanned value by value in pure Python.  Telling the two apart
        never imports numpy: an ndarray exists only once numpy is loaded.
        """
        np = ndarray_numpy(values)
        if np is not None:
            finite, has_inf = _distinct_finite(np, values)
        else:
            has_inf = False
            finite = []
            for v in values:
                v = float(v)
                if math.isnan(v):
                    raise FactorError("NaN factor value")
                if math.isinf(v):
                    if v < 0:
                        raise FactorError("-inf factor value")
                    has_inf = True
                else:
                    finite.append(v)
            finite.sort()
        reps = []
        for v in finite:
            if not reps or v - reps[-1] > eps:
                reps.append(v)
        return cls(eps, reps, has_inf)

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


def ndarray_numpy(values):
    """The numpy module if ``values`` is an ndarray, else None.

    Looks numpy up in ``sys.modules`` instead of importing it, so pure
    Python input never loads it.
    """
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(values, np.ndarray) else None


def _distinct_finite(np, values):
    """(sorted distinct finite values as floats, whether inf occurs).

    ``return_index`` makes ``np.unique`` sort stably, so among equal
    values (0.0 and -0.0) the first one in ``values`` is kept, as the
    sorted scan over every value would keep it.
    """
    uniq = np.unique(np.asarray(values, dtype=np.float64), return_index=True)[0]
    if len(uniq) and np.isnan(uniq[-1]):
        raise FactorError("NaN factor value")
    if len(uniq) and uniq[0] == -math.inf:
        raise FactorError("-inf factor value")
    has_inf = bool(len(uniq)) and uniq[-1] == math.inf
    return (uniq[:-1] if has_inf else uniq).tolist(), has_inf


def redundancy(values, eps: float = DEFAULT_EPS, total: int | None = None) -> float:
    """1 - distinct/total over epsilon-keyed values; 0.0 for empty input.

    ``total`` is the number of cells the values stand for, by default
    ``len(values)``; a caller passing only the values that occur in a
    larger table gives the table's size.  An ndarray is keyed as it is,
    through ``np.unique``; any other iterable is listed and keyed in pure
    Python, without importing numpy.
    """
    if ndarray_numpy(values) is None:
        values = list(values)
    if total is None:
        total = len(values)
    if total == 0:
        return 0.0
    return 1.0 - len(ValueKeySet.from_values(values, eps)) / total
