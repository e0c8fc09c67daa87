"""Factors over discrete variables: dense tables, sparse tables and
value-keyed automata.

A ``TabularFactor`` is the plain representation: sorted scope, flat
row-major table, last scope variable fastest.  A ``SparseFactor`` is a
default value plus exception tuples, the way WCSP files state a
function; its size does not depend on ``prod(domains)``.  A
``DafsaFactor`` stores the same function as a list of (value, automaton)
entries: each distinct (epsilon-keyed) value owns the minimal DAFSA of
the assignments mapping to it.  Entries are pairwise disjoint and, unless
infinity rows were pruned, cover the whole assignment space.  ``combine``
and ``project`` each make one multi-terminal kernel pass over all entries
of their operands (``combine_entries``, ``project_entries``), which
builds every result entry minimal at once.  ``project(f, var, op,
other=g)`` eliminates ``var`` from the combination of ``f`` and ``g`` in
one ``combine_entries`` pass that removes the level as it walks, so the
combined factor is never built.

Both table kinds expose the same read side: ``scope``, ``domains``,
``size``, ``value_of``, ``redundancy``, ``values`` (dense, so only the
oracles and tests read it), ``present_values`` (the values of at least
one cell), ``cells`` (what the WCSP writer consumes) and ``rows_by_key``
(the listed cells grouped by value key, what ``DafsaFactor.from_table``
compiles).  The dense kind is numpy through and through:
``present_values`` is its table and ``cells`` gives an assignment matrix
and the table, and it groups with one stable argsort.  The sparse kind is
pure Python, so a WCSP solve never imports numpy: ``present_values`` is a
list, ``cells`` gives the sorted exception tuples and a list of their
values, and it groups in one pass over its exceptions.  Only ``values``
and ``to_table`` load numpy.  Both kinds store -0.0 as +0.0, so the two
paths key zero alike.

The solver runs ``combine(..., "sum")`` and ``project(..., "min")``
only: MAP potentials reach it as costs -log p (see
``GraphicalModel.cost_factors``), so entry values are costs for both
tasks and the keying epsilon is an absolute tolerance on costs.
``math.inf`` marks hard-infeasible assignments.  It is absorbing under
sum-combination and never beats a finite value under min-projection.
The product/max pair stays as a library operation on probability
factors, on the same two kernels; there inf * 0 is not a number and
raises ``FactorError``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from array import array
from typing import TYPE_CHECKING

from ._backend import kernels
from .automata import Dafsa
from .errors import FactorError
from .keying import DEFAULT_EPS, ValueKeySet
from .keying import redundancy as _value_redundancy

if TYPE_CHECKING:
    import numpy as np

COMBINE_OPS = ("product", "sum")
PROJECT_OPS = ("max", "min")
PARTNER = {"max": "product", "min": "sum"}  # the combine op each projection pairs with


def _strides(domains):
    """Mixed-radix strides, last variable fastest."""
    out = [1] * len(domains)
    for i in range(len(domains) - 2, -1, -1):
        out[i] = out[i + 1] * domains[i + 1]
    return out


def _check_scope(scope, domains):
    if list(scope) != sorted(set(scope)):
        raise FactorError(f"scope {scope} must be sorted and duplicate-free")
    if len(scope) != len(domains):
        raise FactorError("scope and domains length mismatch")
    if any(k < 1 for k in domains):
        raise FactorError("domain sizes must be >= 1")


def _check_value(v):
    if math.isnan(v):
        raise FactorError("NaN in factor table")
    if v == -math.inf:
        raise FactorError("-inf in factor table")


@dataclasses.dataclass(frozen=True)
class TabularFactor:
    """Dense factor over a sorted variable scope.

    ``values[i]`` is the value of the assignment whose mixed-radix rank is
    ``i`` with the last scope variable fastest.  A zero-scope factor is a
    single scalar cell.
    """

    scope: tuple[int, ...]
    domains: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        scope = tuple(self.scope)
        domains = tuple(self.domains)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "domains", domains)
        _check_scope(scope, domains)
        import numpy as np

        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if np.signbit(values[values == 0.0]).any():
            values = values + 0.0  # -0.0 as +0.0, on a copy: the caller's array is not ours
        object.__setattr__(self, "values", values)
        expected = math.prod(domains)
        if len(values) != expected:
            raise FactorError(f"table has {len(values)} cells, expected {expected}")
        if np.isnan(values).any():
            raise FactorError("NaN in factor table")
        if np.isneginf(values).any():
            raise FactorError("-inf in factor table")

    @property
    def size(self) -> int:
        return len(self.values)

    def value_of(self, assignment) -> float:
        """Value at a full model assignment (indexable by variable id)."""
        idx = 0
        for var, stride, k in zip(self.scope, _strides(self.domains), self.domains):
            v = assignment[var]
            if not 0 <= v < k:
                raise FactorError(f"value {v} outside domain of variable {var}")
            idx += v * stride
        return float(self.values[idx])

    def present_values(self) -> np.ndarray:
        return self.values

    def cells(self):
        """(digits, values, None): every row, in rank order.

        ``digits`` is an ``size x len(scope)`` intc matrix of assignments;
        there is no default, every cell is listed.
        """
        import numpy as np

        rank = np.arange(self.size, dtype=np.int64)
        digits = np.empty((self.size, len(self.domains)), dtype=np.intc)
        for j, (stride, k) in enumerate(zip(_strides(self.domains), self.domains)):
            digits[:, j] = rank // stride % k
        return digits, self.values, None

    def rows_by_key(self, keyset: ValueKeySet):
        """({key: rows}, None, None): every row grouped by its value's key.

        ``keyset`` must be built on this table's values.  One stable
        argsort over the keys keeps each group in rank order, which is
        lexicographic, so each group compiles directly.  There is no
        default (see ``SparseFactor.rows_by_key``).
        """
        import numpy as np

        values = self.values
        reps = np.asarray(keyset.reps, dtype=np.float64)
        keyed = np.full(len(values), math.inf)
        finite = ~np.isinf(values)
        if finite.any():  # a member keys to the largest representative at or below it
            keyed[finite] = reps[np.searchsorted(reps, values[finite], side="right") - 1]
        order = np.argsort(keyed, kind="stable")
        keyed = keyed[order]
        bounds = [0, *(np.flatnonzero(keyed[1:] != keyed[:-1]) + 1).tolist(), len(keyed)]
        digits = self.cells()[0]
        groups = {}
        for a, b in zip(bounds, bounds[1:]):
            if b > a:
                buf = array("i")
                buf.frombytes(digits[order[a:b]].tobytes())  # intc is the C int of 'i'
                groups[float(keyed[a])] = (buf, b - a)
        return groups, None, None

    def redundancy(self, eps: float = DEFAULT_EPS) -> float:
        """1 - distinct/total over epsilon-keyed table values."""
        return _value_redundancy(self.values, eps)


@dataclasses.dataclass(frozen=True)
class SparseFactor:
    """Factor given as a default value plus exception tuples.

    ``exceptions`` maps assignments of the sorted scope (tuples in scope
    order) to their values; every other cell holds ``default``.  Nothing
    here allocates ``prod(domains)`` cells except ``values`` and
    ``to_table``.
    """

    scope: tuple[int, ...]
    domains: tuple[int, ...]
    default: float
    exceptions: dict

    def __post_init__(self):
        scope = tuple(self.scope)
        domains = tuple(self.domains)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "domains", domains)
        _check_scope(scope, domains)
        default = float(self.default) + 0.0  # -0.0 as +0.0
        _check_value(default)
        object.__setattr__(self, "default", default)
        exceptions = {}
        for word, v in self.exceptions.items():
            word = tuple(int(d) for d in word)
            if len(word) != len(domains) or not all(0 <= d < k for d, k in zip(word, domains)):
                raise FactorError(f"exception {word} is not an assignment of domains {domains}")
            v = float(v) + 0.0
            _check_value(v)
            exceptions[word] = v
        object.__setattr__(self, "exceptions", exceptions)

    @property
    def size(self) -> int:
        return math.prod(self.domains)

    @property
    def default_covers(self) -> bool:
        """True if at least one cell is not an exception."""
        return len(self.exceptions) < self.size

    @property
    def values(self) -> np.ndarray:
        return self.to_table().values

    def to_table(self) -> TabularFactor:
        """The dense table; allocates ``size`` cells."""
        import numpy as np

        words = np.asarray(list(self.exceptions), dtype=np.int64)
        words = words.reshape(len(self.exceptions), len(self.domains))  # also for no exceptions
        ranks = words @ np.asarray(_strides(self.domains), dtype=np.int64)
        values = np.full(self.size, self.default)
        values[ranks] = list(self.exceptions.values())
        return TabularFactor(self.scope, self.domains, values)

    def value_of(self, assignment) -> float:
        """Value at a full model assignment (indexable by variable id)."""
        word = tuple(assignment[var] for var in self.scope)
        for var, v, k in zip(self.scope, word, self.domains):
            if not 0 <= v < k:
                raise FactorError(f"value {v} outside domain of variable {var}")
        return self.exceptions.get(word, self.default)

    def present_values(self) -> list:
        values = list(self.exceptions.values())
        if self.default_covers:
            values.append(self.default)
        return values

    def cells(self):
        """(words, values, default): the exceptions, lexicographically sorted.

        ``words`` are the exception tuples and ``values`` a list of their
        values; ``default`` is None when every cell is an exception.
        """
        words = sorted(self.exceptions)
        values = [self.exceptions[w] for w in words]
        return words, values, self.default if self.default_covers else None

    def rows_by_key(self, keyset: ValueKeySet):
        """({key: rows}, default key, every listed row): exceptions grouped by key.

        ``keyset`` must be built on ``present_values``.  One pass over the
        sorted exceptions keeps each group lexicographically sorted.  The
        default key is None when the default covers no cell; the cells it
        covers are the universal language minus every listed row.
        """
        words, values, default = self.cells()
        key = keyset.key
        groups = {}
        for w, v in zip(words, values):
            groups.setdefault(key(v), []).append(w)
        groups = {k: _word_rows(ws) for k, ws in groups.items()}
        if default is None:
            return groups, None, None
        return groups, key(default), _word_rows(words)

    def redundancy(self, eps: float = DEFAULT_EPS) -> float:
        """1 - distinct/total over epsilon-keyed cell values, from counts."""
        return _value_redundancy(self.present_values(), eps, total=self.size)


def _word_rows(words) -> tuple:
    """(flat ``array('i')``, count) of a list of words."""
    return array("i", itertools.chain.from_iterable(words)), len(words)


def _compile_rows(domains, rows) -> Dafsa:
    """Minimal DAFSA of ``rows``, a (flat ``array('i')``, count) of strictly increasing words."""
    buf, n = rows
    return Dafsa._from_parts(domains, kernels.compile_sorted(buf, n, len(domains), domains))


@dataclasses.dataclass(frozen=True)
class DafsaFactor:
    """Factor stored as (value, automaton) entries, sorted by value.

    Entry automata share the factor's scope/domains and are pairwise
    disjoint; infinity, when present, sorts last.  Removing a level can
    make entries overlap; ``project`` gives each assignment to the best
    entry in the same kernel pass, so no factor ever holds an overlap.
    """

    scope: tuple[int, ...]
    domains: tuple[int, ...]
    entries: tuple

    def __post_init__(self):
        scope = tuple(self.scope)
        domains = tuple(self.domains)
        entries = tuple((float(v), d) for v, d in self.entries)
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "domains", domains)
        object.__setattr__(self, "entries", entries)
        _check_scope(scope, domains)
        prev = None
        for v, dafsa in entries:
            if math.isnan(v):
                raise FactorError("NaN entry value")
            if math.isinf(v) and v < 0:
                raise FactorError("-inf entry value")
            if prev is not None and not v > prev:
                raise FactorError("entry values must be strictly increasing")
            prev = v
            if dafsa.domains != domains:
                raise FactorError(f"entry automaton domains {dafsa.domains} != factor domains {domains}")
            if dafsa.is_empty():
                raise FactorError("empty entry automaton")

    # -- construction ------------------------------------------------------

    @classmethod
    def from_table(
        cls,
        table: TabularFactor | SparseFactor,
        eps: float = DEFAULT_EPS,
        prune_infinite: bool = False,
    ) -> "DafsaFactor":
        """Group epsilon-equal cells and compile each group to a DAFSA.

        ``table`` is a ``TabularFactor`` or a ``SparseFactor``; its
        ``rows_by_key`` groups the listed cells by key, each group
        lexicographically sorted so it compiles directly (numpy for a
        dense table, pure Python for a sparse one).  The cells a sparse
        default covers are the universal language minus every exception;
        they join the entry their value keys to.  Minimal leveled DAFSAs
        are canonical, so the result is the same as compiling the dense
        table.  With ``prune_infinite`` the infinity rows are simply not
        represented; ``value_at`` then returns None for them.
        """
        domains = table.domains
        keyset = ValueKeySet.from_values(table.present_values(), eps)
        groups, default_key, listed = table.rows_by_key(keyset)

        entries = []
        for rep in keyset:
            if math.isinf(rep) and prune_infinite:
                continue
            rows = groups.get(rep)
            dafsa = None if rows is None else _compile_rows(domains, rows)
            if rep == default_key:
                rest = Dafsa.universal(domains).difference(_compile_rows(domains, listed))
                dafsa = rest if dafsa is None else dafsa.union(rest)
            entries.append((rep, dafsa))
        return cls(table.scope, domains, tuple(entries))

    def to_table(self, default: float = math.inf) -> TabularFactor:
        """Expand back to a dense table; uncovered rows get ``default``.

        Entries are written largest value first, so if automata overlap
        (possible only on hand-assembled factors), the smallest value wins,
        matching min semantics.
        """
        import numpy as np

        domains = self.domains
        total = math.prod(domains)
        values = np.full(total, float(default))
        strides = np.asarray(_strides(domains), dtype=np.int64)
        for v, dafsa in reversed(self.entries):
            for word in dafsa.enumerate_strings(cap=max(total, 1)):
                values[int(np.dot(np.asarray(word, dtype=np.int64), strides))] = v
        return TabularFactor(self.scope, domains, values)

    # -- queries -----------------------------------------------------------

    @property
    def entry_count(self) -> int:
        return len(self.entries)

    @property
    def total_states(self) -> int:
        return sum(d.state_count for _, d in self.entries)

    def value_at(self, assignment):
        """Entry value covering the full model assignment, None if pruned."""
        word = tuple(assignment[v] for v in self.scope)
        for v, dafsa in self.entries:
            if dafsa.accepts(word):
                return v
        return None

    def covered_count(self) -> int:
        return sum(d.count_strings() for _, d in self.entries)

    def redundancy(self) -> float:
        """1 - entries/covered over the assignments this factor represents."""
        total = self.covered_count()
        if total == 0:
            return 0.0
        return 1.0 - len(self.entries) / total

    def check_partition(self, covering: bool = True):
        """Verify entries are pairwise disjoint (and covering). For tests."""
        for i in range(len(self.entries)):
            for j in range(i + 1, len(self.entries)):
                if not self.entries[i][1].intersect(self.entries[j][1]).is_empty():
                    raise FactorError(f"entries {i} and {j} overlap")
        if covering:
            union = Dafsa.empty(self.domains)
            for _, d in self.entries:
                union = union.union(d)
            if union != Dafsa.universal(self.domains):
                raise FactorError("entries do not cover the assignment space")

    # -- scope surgery -------------------------------------------------------

    def add_levels(self, scope, domains) -> "DafsaFactor":
        """Extend to a superset scope by inserting wildcard levels.

        The new variables are unconstrained: every entry automaton gets a
        wildcard edge at each inserted position, so values are unchanged.
        """
        scope = tuple(scope)
        domains = tuple(domains)
        if len(scope) != len(domains):
            raise FactorError("scope and domains length mismatch")
        if list(scope) != sorted(set(scope)):
            raise FactorError(f"target scope {scope} must be sorted and duplicate-free")
        have = set(self.scope)
        missing = [i for i, v in enumerate(scope) if v not in have]
        if have - set(scope):
            raise FactorError("target scope must contain the factor scope")
        entries = []
        for val, dafsa in self.entries:
            for pos in missing:
                dafsa = dafsa.insert_wildcard_level(pos, domains[pos])
            entries.append((val, dafsa))
        return DafsaFactor(scope, domains, tuple(entries))


def _combine_call(f1: DafsaFactor, f2: DafsaFactor, op: str, eps: float):
    """(scope, domains, keys, operands, labels) of ``f1 op f2``.

    ``operands`` are the ``combine_entries`` arguments before the labels:
    entries, union domains and level flags.  Every entry pair (i, j) is
    keyed by the epsilon key of ``v_i op v_j``, over the keyset of all
    pair values, and labelled by that key's index in the sorted ``keys``.
    """
    if op not in COMBINE_OPS:
        raise FactorError(f"combine op must be one of {COMBINE_OPS}, got {op!r}")
    kmap = {}
    for f in (f1, f2):
        for var, k in zip(f.scope, f.domains):
            if kmap.setdefault(var, k) != k:
                raise FactorError(f"variable {var} has conflicting domains")
    scope = tuple(sorted(kmap))
    domains = tuple(kmap[v] for v in scope)

    pair_values = [
        va + vb if op == "sum" else va * vb for va, _ in f1.entries for vb, _ in f2.entries
    ]
    keyset = ValueKeySet.from_values(pair_values, eps)
    keys = list(keyset)
    index = {key: n for n, key in enumerate(keys)}
    operands = (
        [d.parts for _, d in f1.entries], [d.parts for _, d in f2.entries], domains,
        [var in f1.scope for var in scope], [var in f2.scope for var in scope],
    )
    return scope, domains, keys, operands, [index[keyset.key(v)] for v in pair_values]


def combine(f1: DafsaFactor, f2: DafsaFactor, op: str, eps: float = DEFAULT_EPS) -> DafsaFactor:
    """Pointwise ``op`` over the union scope, in one kernel pass.

    ``combine_entries`` walks both factors' entries in step over the union
    scope, a variable outside a factor's scope acting as a wildcard, and
    gives each assignment the key of its entry pair.  Assignments pruned
    in either input stay pruned.
    """
    scope, domains, keys, operands, labels = _combine_call(f1, f2, op, eps)
    kept, _ = kernels.combine_entries(*operands, labels, -1)
    return DafsaFactor(scope, domains, tuple((keys[n], Dafsa._from_parts(domains, p)) for n, p in kept))


def project(f: DafsaFactor, var: int, op: str, other: DafsaFactor | None = None,
            eps: float = DEFAULT_EPS):
    """Eliminate ``var`` by ``op`` over its values, in one kernel pass.

    ``project_entries`` drops the variable's level from all entries at
    once, passed best value first, and gives each assignment of the result
    to the best entry that reaches it.

    Given ``other``, it eliminates ``var`` from ``combine(f, other)``, by
    the op's semiring partner (sum for min, product for max) under that
    combine's keyset, without building the combined factor:
    ``combine_entries`` removes the level on the fly, with the labels
    ranked best first, and the entries are byte-identical to projecting
    the combined factor.

    Returns ``(factor, growth)`` where growth holds the call's one
    sample: the distinct (entry, state) members and the distinct subsets
    ``project_entries`` visited, or the distinct (A subset, B subset)
    pairs and the distinct nodes the fused walk visited.
    """
    if op not in PROJECT_OPS:
        raise FactorError(f"project op must be one of {PROJECT_OPS}, got {op!r}")
    if other is None:
        scope, domains = f.scope, f.domains
    else:
        scope, domains, keys, operands, labels = _combine_call(f, other, PARTNER[op], eps)
    if var not in scope:
        raise FactorError(f"variable {var} not in scope {scope}")
    pos = scope.index(var)
    # ranked: the values best first, largest first for max, where inf cannot occur
    if other is None:
        entries = f.entries if op == "min" else f.entries[::-1]
        ranked = [v for v, _ in entries]
        kept, growth = kernels.project_entries([d.parts for _, d in entries], domains, pos)
    else:
        ranked = keys if op == "min" else keys[::-1]
        if op == "max":
            labels = [len(keys) - 1 - n for n in labels]
        kept, growth = kernels.combine_entries(*operands, labels, pos)
    scope = scope[:pos] + scope[pos + 1 :]
    domains = domains[:pos] + domains[pos + 1 :]
    entries = [(ranked[n], Dafsa._from_parts(domains, p)) for n, p in kept]
    if op == "max":
        entries.reverse()  # kept comes in ranked order
    return DafsaFactor(scope, domains, tuple(entries)), [growth]
