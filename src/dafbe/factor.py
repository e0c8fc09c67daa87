"""Factors over discrete variables: dense tables, sparse tables and
value-keyed automata.

A ``TabularFactor`` is the plain representation: sorted scope, flat
row-major table, last scope variable fastest.  A ``SparseFactor`` is a
default value plus exception tuples, the way WCSP files state a
function; its size does not depend on ``prod(domains)``.  A
``DafsaFactor`` stores the same function as a list of (value, automaton)
entries: each distinct (epsilon-keyed) value owns the minimal DAFSA of
the assignments mapping to it.  Entries are pairwise disjoint and, unless
infinity rows were pruned, cover the whole assignment space.

Both table kinds expose the same read side: ``scope``, ``domains``,
``size``, ``value_of``, ``redundancy``, ``values`` (dense, so only the
oracles and tests read it), ``present_values`` (the values of at least
one cell) and ``cells`` (what ``DafsaFactor.from_table`` and the WCSP
writer consume).

The solver runs ``combine(..., "sum")`` and ``project(..., "min")``
only: MAP potentials reach it as costs -log p (see
``GraphicalModel.cost_factors``), so entry values are costs for both
tasks and the keying epsilon is an absolute tolerance on costs.
``math.inf`` marks hard-infeasible assignments.  It is absorbing under
sum-combination and never beats a finite value under min-projection.
The product/max pair stays as a library operation on probability
factors; there inf * 0 is not a number and raises ``FactorError``.
"""

from __future__ import annotations

import dataclasses
import math
from array import array

import numpy as np

from ._backend import kernels
from .automata import Dafsa
from .errors import FactorError
from .keying import DEFAULT_EPS, ValueKeySet
from .keying import redundancy as _value_redundancy

COMBINE_OPS = ("product", "sum")
PROJECT_OPS = ("max", "min")


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
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
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
        rank = np.arange(self.size, dtype=np.int64)
        digits = np.empty((self.size, len(self.domains)), dtype=np.intc)
        for j, (stride, k) in enumerate(zip(_strides(self.domains), self.domains)):
            digits[:, j] = rank // stride % k
        return digits, self.values, None

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
        default = float(self.default)
        _check_value(default)
        object.__setattr__(self, "default", default)
        exceptions = {}
        for word, v in self.exceptions.items():
            word = tuple(int(d) for d in word)
            if len(word) != len(domains) or not all(0 <= d < k for d, k in zip(word, domains)):
                raise FactorError(f"exception {word} is not an assignment of domains {domains}")
            v = float(v)
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
        values = np.full(self.size, self.default)
        digits, exc_values, _ = self.cells()
        strides = np.asarray(_strides(self.domains), dtype=np.int64)
        values[digits.astype(np.int64) @ strides] = exc_values
        return TabularFactor(self.scope, self.domains, values)

    def value_of(self, assignment) -> float:
        """Value at a full model assignment (indexable by variable id)."""
        word = tuple(assignment[var] for var in self.scope)
        for var, v, k in zip(self.scope, word, self.domains):
            if not 0 <= v < k:
                raise FactorError(f"value {v} outside domain of variable {var}")
        return self.exceptions.get(word, self.default)

    def present_values(self) -> np.ndarray:
        values = list(self.exceptions.values())
        if self.default_covers:
            values.append(self.default)
        return np.asarray(values, dtype=np.float64)

    def cells(self):
        """(digits, values, default): the exceptions, lexicographically sorted.

        ``default`` is None when every cell is an exception.
        """
        words = sorted(self.exceptions)
        digits = np.asarray(words, dtype=np.intc).reshape(len(words), len(self.domains))
        values = np.asarray([self.exceptions[w] for w in words], dtype=np.float64)
        return digits, values, self.default if self.default_covers else None

    def redundancy(self, eps: float = DEFAULT_EPS) -> float:
        """1 - distinct/total over epsilon-keyed cell values, from counts."""
        return _value_redundancy(self.present_values(), eps, total=self.size)


def _compile_rows(domains, rows) -> Dafsa:
    """Minimal DAFSA of the rows of an intc matrix, strictly increasing."""
    buf = array("i")
    buf.frombytes(np.ascontiguousarray(rows, dtype=np.intc).tobytes())
    return Dafsa._from_parts(domains, kernels.compile_sorted(buf, len(rows), len(domains), domains))


def _keyed(keyset: ValueKeySet, values: np.ndarray) -> np.ndarray:
    """Representative of every value (values must come from the keyset's population)."""
    reps = np.asarray(keyset.reps, dtype=np.float64)
    keyed = np.full(len(values), math.inf)
    finite = ~np.isinf(values)
    if finite.any():
        keyed[finite] = reps[np.searchsorted(reps, values[finite], side="right") - 1]
    return keyed


@dataclasses.dataclass(frozen=True)
class DafsaFactor:
    """Factor stored as (value, automaton) entries, sorted by value.

    Entry automata share the factor's scope/domains and are pairwise
    disjoint; infinity, when present, sorts last.  ``remove_level`` output
    is the one transient place overlaps occur, and ``project`` resolves
    them before building a factor.
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

        ``table`` is a ``TabularFactor`` or a ``SparseFactor``.  Listed
        cells are grouped by key with one stable sort, so each group stays
        lexicographically sorted and compiles directly.  The cells a
        sparse default covers are the universal language minus every
        exception; they join the entry their value keys to.  Minimal
        leveled DAFSAs are canonical, so the result is the same as
        compiling the dense table.  With ``prune_infinite`` the infinity
        rows are simply not represented; ``value_at`` then returns None
        for them.
        """
        domains = table.domains
        digits, values, default = table.cells()
        keyset = ValueKeySet.from_values(table.present_values(), eps)
        keyed = _keyed(keyset, values)
        order = np.argsort(keyed, kind="stable")
        keyed = keyed[order]
        bounds = [0, *(np.flatnonzero(keyed[1:] != keyed[:-1]) + 1).tolist(), len(keyed)]
        groups = {float(keyed[a]): order[a:b] for a, b in zip(bounds, bounds[1:]) if b > a}
        default_key = None if default is None else _keyed(keyset, np.array([default]))[0]

        entries = []
        for rep in keyset:
            if math.isinf(rep) and prune_infinite:
                continue
            rows = groups.get(rep)
            dafsa = None if rows is None else _compile_rows(domains, digits[rows])
            if rep == default_key:
                rest = Dafsa.universal(domains).difference(_compile_rows(domains, digits))
                dafsa = rest if dafsa is None else dafsa.union(rest)
            entries.append((rep, dafsa))
        return cls(table.scope, domains, tuple(entries))

    def to_table(self, default: float = math.inf) -> TabularFactor:
        """Expand back to a dense table; uncovered rows get ``default``.

        Entries are written largest value first, so if automata overlap
        (possible only on hand-assembled factors), the smallest value wins,
        matching min semantics.
        """
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


def combine(f1: DafsaFactor, f2: DafsaFactor, op: str, eps: float = DEFAULT_EPS) -> DafsaFactor:
    """Pointwise ``op`` over the union scope.

    Both factors are first aligned to the union scope with wildcard
    levels; every entry pair contributes its intersection under the
    epsilon key of ``v1 op v2``, accumulated by union.  Assignments pruned
    in either input stay pruned.
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
    a = f1.add_levels(scope, domains)
    b = f2.add_levels(scope, domains)

    pair_values = [
        [va + vb if op == "sum" else va * vb for vb, _ in b.entries] for va, _ in a.entries
    ]
    keyset = ValueKeySet.from_values((v for row in pair_values for v in row), eps)
    acc = {}
    for i, (_, da) in enumerate(a.entries):
        for j, (_, db) in enumerate(b.entries):
            inter = da.intersect(db)
            if inter.is_empty():
                continue
            key = keyset.key(pair_values[i][j])
            cur = acc.get(key)
            acc[key] = inter if cur is None else cur.union(inter)
    entries = tuple(sorted(acc.items()))
    return DafsaFactor(scope, domains, entries)


def project(f: DafsaFactor, var: int, op: str):
    """Eliminate ``var`` by ``op`` over its values.

    Every entry drops the variable's level (re-determinizing as needed);
    overlaps between the shrunk entries are then resolved in favor of the
    op-preferred value by a running subtraction: entries are visited best
    value first, each keeps only what no better entry already claimed.

    Returns ``(factor, growth)`` where growth lists one
    (nfa_states, raw_dfa_states) sample per processed entry.
    """
    if op not in PROJECT_OPS:
        raise FactorError(f"project op must be one of {PROJECT_OPS}, got {op!r}")
    if var not in f.scope:
        raise FactorError(f"variable {var} not in scope {f.scope}")
    pos = f.scope.index(var)
    scope = f.scope[:pos] + f.scope[pos + 1 :]
    domains = f.domains[:pos] + f.domains[pos + 1 :]

    shrunk = []
    growth = []
    for val, dafsa in f.entries:
        small, nfa_states, raw_states = dafsa.remove_level(pos)
        shrunk.append((val, small))
        growth.append((nfa_states, raw_states))

    if op == "max":
        shrunk.reverse()  # largest value first; inf cannot occur in max mode
    # the best entry keeps everything; the union of the last one is never read
    kept = []
    prec = None
    last = len(shrunk) - 1
    for i, (val, dafsa) in enumerate(shrunk):
        remainder = dafsa if prec is None else dafsa.difference(prec)
        if remainder.is_empty():
            continue
        kept.append((val, remainder))
        if i < last:
            prec = dafsa if prec is None else prec.union(dafsa)
    kept.sort(key=lambda e: e[0])
    return DafsaFactor(scope, domains, tuple(kept)), growth
