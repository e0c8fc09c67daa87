"""Factors over discrete variables: dense tables, sparse tables and
value-keyed automata.

A ``TabularFactor`` is the plain representation: sorted scope, flat
row-major table, last scope variable fastest.  A ``SparseFactor`` is a
default value plus exception tuples, the way WCSP files state a
function; its size does not depend on ``prod(domains)``.  A
``DafsaFactor`` stores the same function as a list of (value, automaton)
entries: each distinct (epsilon-keyed) value owns the minimal DAFSA of
the assignments mapping to it.  Entries are pairwise disjoint and cover
every assignment of finite value; ``from_table`` leaves the infinite-value
cells out, so ``value_at`` returns None and ``to_table`` fills ``inf``
back in there.

Entries are the public, paper form.  Between kernel calls a factor is
its sorted values, ``keys``, and one shared multi-terminal automaton,
``shared`` = ``(t_off, t_sym, t_dst, term)`` rooted at state 0, where
``term[s]`` is the index into ``keys`` of terminal state ``s`` and -1
elsewhere.  The shared form is canonical: minimal across values (equal
right languages share a state, one terminal per value), complete fans
collapsed, states numbered breadth-first, so the terminals come last;
the empty function is a lone root with term -1.  ``from_table`` compiles
a table straight into it in one ``compile_sorted`` walk, each listed
cell labelled by its value's key, and keeps no entries.  The ``join``
kernel reads entries into it and ``split`` reads them back off,
byte-identical, each on first demand.  ``combine`` and ``project`` each
make one kernel pass over shared forms and return one, so the solver
never builds entries.  ``project(f, var, op, other=g)`` eliminates
``var`` from the combination of ``f`` and ``g``, and without ``g`` from
``f`` combined with the constant ``SCALAR``.  When ``var`` is the last
variable of their union scope, as it always is in the solver, that is
one ``combine_entries`` pass that folds the last level as it walks, so
the combined factor is never built; any other ``var`` is projected out
of ``combine(f, g)``, or out of ``f`` by ``project_entries``' subset
walk.  The solver's growth samples therefore have two equal counts.
``value_at`` is one path down the shared automaton, ``least_string`` one
backward marking pass over it and one path down.  ``on_support`` drops
the levels of the variables a factor ignores, without a kernel call.

Both table kinds expose the same read side, the way a WCSP file states
a function: ``scope``, ``domains``, ``size``, ``value_of``,
``redundancy``, ``values`` (dense, so only the oracles and tests read
it), ``present_values`` (a list of the values of at least one cell) and
``cells`` (a default and the cells off it, as flat ``array('i')`` digits
and a list of their values, what ``DafsaFactor.from_table`` compiles and
the WCSP writer writes), and both give ``renamed`` (the same function
over renamed variables, what the solver compiles).  So keying always
gets a list.  The dense kind keeps numpy inside: ``cells`` takes the
most frequent value, ties to the smallest, as the default and lists the
other cells in rank order, and it renames with one transpose.  The
sparse kind is pure Python, so a WCSP solve never imports numpy:
``cells`` gives the sorted exceptions, and a default of None when they
cover every cell, and it renames by permuting them.  Both kinds store
-0.0 as +0.0, so the two key zero alike.

The solver runs ``combine(..., "sum")`` and ``project(..., "min")``
only: MAP potentials reach it as costs -log p (see
``GraphicalModel.cost_factors``), so entry values are costs for both
tasks and the keying epsilon is an absolute tolerance on costs.
``math.inf`` marks hard-infeasible assignments.  It is absorbing under
sum-combination and never beats a finite value under min-projection, so
those two ops treat a cell no entry covers as ``inf`` for free.  The
product/max pair stays as a library operation on probability factors,
on the same two kernels; it first gives each operand's uncovered cells
an explicit ``inf`` entry, so max keeps ``inf`` and inf * 0, not a
number, raises ``FactorError``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import operator
from array import array
from bisect import bisect_left
from typing import TYPE_CHECKING

from ._backend import kernels
from .automata import SCALAR, WILDCARD, Dafsa
from .errors import AutomatonError, FactorError
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


def _renaming(scope, domains, names):
    """(scope, domains, perm) over the variables ``names[v]``, ``v`` in ``scope``.

    The new scope is ascending; ``perm`` lists the old scope positions in
    its order, and is None when the order is kept.
    """
    new = [names[v] for v in scope]
    perm = sorted(range(len(new)), key=new.__getitem__)
    if perm == list(range(len(new))):
        return tuple(new), domains, None
    return tuple(new[i] for i in perm), tuple(domains[i] for i in perm), perm


def _trusted(cls, **fields):
    """A frozen table of ``fields`` already checked, without checking them again."""
    self = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(self, name, value)
    return self


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

    def present_values(self) -> list:
        """The table's distinct values, ascending."""
        import numpy as np

        return np.unique(self.values).tolist()

    def cells(self):
        """(digits, values, default): the cells off the most frequent value.

        ``default`` is the value most cells hold, the smallest of those
        tied; the cells holding any other value are listed in rank order,
        ``digits`` an ``array('i')`` of their assignments end to end and
        ``values`` a list of their values.  It is the normal form the WCSP
        writer writes, and a constant table lists no cell.
        """
        import numpy as np

        distinct, counts = np.unique(self.values, return_counts=True)
        default = distinct[np.argmax(counts)].item()  # the first maximum: the smallest tied
        ranks = np.flatnonzero(self.values != default)
        digits = np.empty((len(ranks), len(self.domains)), dtype=np.intc)
        for j, (stride, k) in enumerate(zip(_strides(self.domains), self.domains)):
            digits[:, j] = ranks // stride % k
        return array("i", digits.tobytes()), self.values[ranks].tolist(), default  # intc is 'i'

    def renamed(self, names) -> TabularFactor:
        """This function over the variables ``names[v]``, ``v`` in ``scope``.

        The new scope is sorted, so the table is transposed to match, in
        one numpy transpose and copy; with the order kept it is shared.
        """
        scope, domains, perm = _renaming(self.scope, self.domains, names)
        values = self.values
        if perm is not None:
            values = values.reshape(self.domains).transpose(perm).reshape(-1)
        return _trusted(TabularFactor, scope=scope, domains=domains, values=values)

    def redundancy(self, eps: float = DEFAULT_EPS) -> float:
        """1 - distinct/total over epsilon-keyed cell values."""
        return _value_redundancy(self.present_values(), eps, total=self.size)


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
        """(digits, values, default): the exceptions, lexicographically sorted.

        ``digits`` is an ``array('i')`` of the exception tuples end to end
        and ``values`` a list of their values; ``default`` is None when
        every cell is an exception.
        """
        words = sorted(self.exceptions)
        values = [self.exceptions[w] for w in words]
        digits = array("i", itertools.chain.from_iterable(words))
        return digits, values, self.default if self.default_covers else None

    def renamed(self, names) -> SparseFactor:
        """This function over the variables ``names[v]``, ``v`` in ``scope``.

        The new scope is sorted, so each exception tuple is permuted to
        match; with the order kept the exceptions are shared.
        """
        scope, domains, perm = _renaming(self.scope, self.domains, names)
        exceptions = self.exceptions
        if perm is not None:
            pick = operator.itemgetter(*perm)  # two or more positions: it gives tuples
            exceptions = {pick(word): v for word, v in exceptions.items()}
        return _trusted(SparseFactor, scope=scope, domains=domains, default=self.default,
                        exceptions=exceptions)

    def redundancy(self, eps: float = DEFAULT_EPS) -> float:
        """1 - distinct/total over epsilon-keyed cell values."""
        return _value_redundancy(self.present_values(), eps, total=self.size)


class DafsaFactor:
    """Factor stored as (value, automaton) entries, sorted by value.

    Entry automata share the factor's scope/domains and are pairwise
    disjoint; infinity, when present, sorts last.  Removing a level can
    make entries overlap; ``project`` gives each assignment to the best
    entry in the same kernel pass, so no factor ever holds an overlap.

    ``DafsaFactor(scope, domains, entries)`` is the public, paper form.
    Between kernel calls the factor is ``keys``, its sorted values, and
    ``shared``, one multi-terminal automaton whose terminal labels index
    ``keys`` (see ``_kernels_py``).  Each form is read off the other on
    demand (``join``, ``split``) and kept.  A factor from ``from_table``
    or a kernel starts in the shared form and keeps no entries, so the
    solver, which reads only ``keys`` and ``shared``, never builds any.
    Given overlapping entries, ``keys`` and ``shared`` give each
    assignment to the first entry that has it.
    """

    __slots__ = ("scope", "domains", "_entries", "_keys", "_shared")

    def __init__(self, scope, domains, entries):
        scope = tuple(scope)
        domains = tuple(domains)
        entries = tuple((float(v), d) for v, d in entries)
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
        self.scope = scope
        self.domains = domains
        self._entries = entries
        self._keys = None
        self._shared = None

    @classmethod
    def _from_shared(cls, scope, domains, keys, shared) -> "DafsaFactor":
        """Wrap trusted kernel output: ``shared`` parts labelled into ``keys``."""
        self = object.__new__(cls)
        self.scope = scope
        self.domains = domains
        self._entries = None
        self._keys = keys
        self._shared = shared
        return self

    def __eq__(self, other):
        if not isinstance(other, DafsaFactor):
            return NotImplemented
        return (self.scope, self.domains, self.entries) == (other.scope, other.domains, other.entries)

    def __repr__(self):
        return f"DafsaFactor(scope={self.scope}, domains={self.domains}, keys={self.keys})"

    # -- the two forms -------------------------------------------------------

    @property
    def entries(self) -> tuple:
        """((value, Dafsa), ...), values ascending; split off ``shared`` on demand."""
        if self._entries is None:
            domains = self.domains
            self._entries = tuple(
                (self._keys[label], Dafsa._from_parts(domains, parts))
                for label, parts in kernels.split(self._shared, domains)
            )
        return self._entries

    def _join(self):
        parts, labels = kernels.join([d.parts for _, d in self._entries], self.domains)
        self._shared = parts
        self._keys = tuple(self._entries[n][0] for n in labels)

    @property
    def keys(self) -> tuple:
        """The values of ``shared``'s labels, ascending."""
        if self._keys is None:
            self._join()
        return self._keys

    @property
    def shared(self) -> tuple:
        """(t_off, t_sym, t_dst, term): the whole factor as one automaton."""
        if self._shared is None:
            self._join()
        return self._shared

    # -- construction ------------------------------------------------------

    @classmethod
    def from_table(cls, table: TabularFactor | SparseFactor,
                   eps: float = DEFAULT_EPS) -> "DafsaFactor":
        """Key each cell's value and compile the table in one kernel call.

        ``table`` is a ``TabularFactor`` or a ``SparseFactor``, read
        through its ``cells``: one ``from_values`` scan over the listed
        values, and the default after them, labels each by its key's
        index, and ``compile_sorted`` builds the shared form straight from
        the rows and labels, the default's label on every other cell.  The
        result keeps no entries; ``entries`` splits them off on demand.
        The infinite-value cells are labelled -1 and left out: their
        language is the complement of the finite entries, so ``value_at``
        returns None and ``to_table`` gives ``inf`` for them.
        """
        domains = table.domains
        digits, values, default = table.cells()
        if default is not None:
            values = [*values, default]  # labelled last
        keyset = ValueKeySet.from_values(values, eps)
        labels = keyset.labels
        default = -1 if default is None else labels.pop()
        shared, kept = kernels.compile_sorted(
            digits, len(labels), len(domains), domains, labels, default
        )
        return cls._from_shared(table.scope, domains, tuple(keyset.reps[n] for n in kept), shared)

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
        return len(self.keys)

    @property
    def total_states(self) -> int:
        """States of the shared automaton, which the solver keeps."""
        return len(self.shared[0]) - 1

    def value_at(self, assignment):
        """Value covering the full model assignment, None where no entry covers it.

        One path down the shared automaton.
        """
        t_off, t_sym, t_dst, term = self.shared
        s = 0
        for var, k in zip(self.scope, self.domains):
            v = assignment[var]
            if not 0 <= v < k:
                raise AutomatonError(f"symbol {v} outside domain {k} of variable {var}")
            lo = t_off[s]
            hi = t_off[s + 1]
            if lo == hi:  # the root of the empty function
                return None
            if t_sym[lo] == WILDCARD:
                s = t_dst[lo]
                continue
            j = bisect_left(t_sym, v, lo, hi)
            if j == hi or t_sym[j] != v:
                return None
            s = t_dst[j]
        label = term[s]
        return None if label < 0 else self.keys[label]

    def least_string(self, label: int = 0):
        """The lexicographically least assignment of ``scope`` labelled ``label``, or None.

        Two passes, O(states + edges).  The first marks the states from
        which a string of the label runs, one level at a time from the
        deepest: states are numbered breadth-first, so a level is an id
        run that starts at the first child of the level above's first
        state, and a state is marked when the running count of marked
        children rises across its edges.  The second walks from the root,
        taking each state's first edge into a marked state, in symbol
        order, a wildcard edge reading 0.  Label 0 gives the least
        assignment of the least value.
        """
        t_off, t_sym, t_dst, term = self.shared
        if label < 0 or label not in term:  # -1 marks every state but the terminals
            return None
        live = bytearray(len(term))
        live[term.index(label)] = 1  # the label's one terminal
        first = [0]  # the first state of each level
        for _ in self.scope:
            first.append(t_dst[t_off[first[-1]]])
        for lo, hi in reversed(list(zip(first, first[1:]))):
            base = t_off[lo]
            seen = list(itertools.accumulate(map(live.__getitem__, t_dst[base : t_off[hi]]), initial=0))
            at = [seen[e - base] for e in t_off[lo : hi + 1]]
            live[lo:hi] = bytes(map(operator.lt, at, at[1:]))
        word = []
        s = 0
        for _ in self.scope:
            e = t_off[s]
            while not live[t_dst[e]]:
                e += 1
            word.append(0 if t_sym[e] == WILDCARD else t_sym[e])
            s = t_dst[e]
        return tuple(word)

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

        The new variables are unconstrained, so values are unchanged: one
        ``combine_entries`` walk of ``shared`` with the constant ``SCALAR``
        over the target scope, in which the new levels are outside the
        factor's scope.  The target domains of the factor's own variables
        must be its domains.
        """
        scope = tuple(scope)
        domains = tuple(domains)
        _check_scope(scope, domains)
        have = dict(zip(self.scope, self.domains))
        if not have.keys() <= set(scope):
            raise FactorError("target scope must contain the factor scope")
        if any(have.get(var, k) != k for var, k in zip(scope, domains)):
            raise FactorError(f"target domains {domains} differ from {self.domains} at the factor scope")
        keys = self.keys
        shared, kept, _ = kernels.combine_entries(
            self.shared, SCALAR, domains, [var in have for var in scope], [False] * len(scope),
            range(len(keys)),
        )
        return DafsaFactor._from_shared(scope, domains, tuple(keys[n] for n in kept), shared)

    def on_support(self) -> "DafsaFactor":
        """This factor over the variables it depends on; ``self`` if it ignores none.

        A variable is ignored exactly when every state on its level of the
        canonical shared form is a lone wildcard edge.  States are numbered
        breadth-first, so level ``l`` is the id run from ``first[l]`` up to
        ``first[l + 1]``, the first child of its first state, and a level
        is idle when it has one edge per state, all of them wildcards.
        Lone-wildcard states on one level have distinct children (else they
        would be one state), and every state below is some state's child, so
        an idle level's states lead one to one, in order, to the next
        level's.  Sending each edge into an idle level on to the state below
        its run of idle levels therefore merges no states, makes no complete
        fan and keeps the breadth-first order: the splice drops the idle
        levels' states and edges and moves every remaining id and offset
        down by the number of idle states above it.  The result is
        canonical, the same bytes as projecting each ignored variable out,
        with the same ``keys``.  A constant, one chain of wildcards, becomes
        ``SCALAR`` over no variables; the empty function is returned as it
        is.
        """
        t_off, t_sym, t_dst, term = self.shared
        if WILDCARD not in t_sym:
            return self
        if len(t_sym) == len(self.scope) == t_sym.count(WILDCARD):  # one wildcard chain
            return DafsaFactor._from_shared((), (), self.keys, SCALAR)
        first = [0]  # the first state of each level, then of the terminals
        idle = []
        lo = 0
        for _ in self.scope:
            e_lo = t_off[lo]
            hi = t_dst[e_lo]
            e_hi = t_off[hi]
            first.append(hi)
            idle.append(e_hi - e_lo == hi - lo and t_sym[e_lo:e_hi].count(WILDCARD) == hi - lo)
            lo = hi
        if True not in idle:
            return self
        off = array("i", [0])
        sym = array("i")
        dst = array("i")
        removed = 0  # idle states on the levels above, one edge each
        for is_idle, lo, hi in zip(idle, first, first[1:]):
            if is_idle:
                removed += hi - lo
                continue
            shift = (-removed).__add__
            off.extend(map(shift, t_off[lo + 1 : hi + 1]))
            sym += t_sym[t_off[lo] : t_off[hi]]
            dst.extend(map(shift, t_dst[t_off[lo] : t_off[hi]]))
        lo = first[-1]
        off.extend(map((-removed).__add__, t_off[lo + 1 :]))
        return DafsaFactor._from_shared(
            tuple(var for var, is_idle in zip(self.scope, idle) if not is_idle),
            tuple(k for k, is_idle in zip(self.domains, idle) if not is_idle),
            self.keys, (off, sym, dst, array("i", [-1]) * (lo - removed) + term[lo:]),
        )


def _with_inf_entry(f: DafsaFactor) -> DafsaFactor:
    """``f`` with the cells no finite entry covers as one ``inf`` entry.

    One ``join`` of the finite entries and a universal one last: a cell
    takes the lowest label that holds it, so ``inf`` gets just the cells
    no finite entry covers.
    """
    finite = [e for e in f.entries if e[0] < math.inf]
    values = [v for v, _ in finite] + [math.inf]
    parts = [d.parts for _, d in finite] + [Dafsa.universal(f.domains).parts]
    shared, labels = kernels.join(parts, f.domains)
    if labels[-1] < len(finite):
        return f
    return DafsaFactor._from_shared(f.scope, f.domains, tuple(values[n] for n in labels), shared)


def _combine_call(f1: DafsaFactor, f2: DafsaFactor, op: str, eps: float):
    """(scope, domains, keys, operands, labels) of ``f1 op f2``.

    ``operands`` are the ``combine_entries`` arguments before the labels:
    the shared forms, union domains and level flags.  Every label pair
    (i, j) is labelled by one ``from_values`` scan over all pair values
    ``v_i op v_j``: the index of its epsilon key in the sorted ``keys``.
    """
    if op not in COMBINE_OPS:
        raise FactorError(f"combine op must be one of {COMBINE_OPS}, got {op!r}")
    if op == "product":
        f1, f2 = _with_inf_entry(f1), _with_inf_entry(f2)
    kmap = {}
    for f in (f1, f2):
        for var, k in zip(f.scope, f.domains):
            if kmap.setdefault(var, k) != k:
                raise FactorError(f"variable {var} has conflicting domains")
    scope = tuple(sorted(kmap))
    domains = tuple(kmap[v] for v in scope)

    pair_values = [va + vb if op == "sum" else va * vb for va in f1.keys for vb in f2.keys]
    keyset = ValueKeySet.from_values(pair_values, eps)
    labels = keyset.labels
    if keyset.has_infinity:  # infinity is a key here, the last one
        labels = [n if n >= 0 else len(keyset.reps) for n in labels]
    operands = (
        f1.shared, f2.shared, domains,
        [var in f1.scope for var in scope], [var in f2.scope for var in scope],
    )
    return scope, domains, list(keyset), operands, labels


def combine(f1: DafsaFactor, f2: DafsaFactor, op: str, eps: float = DEFAULT_EPS) -> DafsaFactor:
    """Pointwise ``op`` over the union scope, in one kernel pass.

    ``combine_entries`` walks both factors' shared automata in step over
    the union scope, a variable outside a factor's scope acting as a
    wildcard, and gives each assignment the key of its label pair.
    Under sum, assignments left out of either input stay out; product
    reads them as ``inf`` (``_with_inf_entry``).
    """
    scope, domains, keys, operands, labels = _combine_call(f1, f2, op, eps)
    shared, kept, _ = kernels.combine_entries(*operands, labels)
    return DafsaFactor._from_shared(scope, domains, tuple(keys[n] for n in kept), shared)


def _relabelled(shared, labels):
    """``shared`` with label ``n`` renamed ``labels[n]``."""
    t_off, t_sym, t_dst, term = shared
    return t_off, t_sym, t_dst, array("i", [t if t < 0 else labels[t] for t in term])


def project(f: DafsaFactor, var: int, op: str, other: DafsaFactor | None = None,
            eps: float = DEFAULT_EPS):
    """Eliminate ``var`` by ``op`` over its values, in one kernel pass.

    Given ``other``, it eliminates ``var`` from ``combine(f, other)``, by
    the op's semiring partner (sum for min, product for max) under that
    combine's keyset; without, from ``f`` alone, which is ``f`` combined
    with the constant ``SCALAR``, each key its own label.  The labels are
    ranked best value first.  When ``var`` is the last variable of the
    scope, as it always is in the solver, ``combine_entries`` folds its
    level on the fly, each assignment of the result taking the best label
    that reaches it, so the combined factor is never built.  Any other
    ``var`` is projected out of the combined factor, and out of ``f`` by
    ``project_entries``' subset walk.

    Returns ``(factor, growth)`` where growth holds the call's one
    sample: the distinct (A state, B state) pairs the fold walked, twice,
    or the distinct states and the distinct subsets ``project_entries``
    visited.
    """
    if op not in PROJECT_OPS:
        raise FactorError(f"project op must be one of {PROJECT_OPS}, got {op!r}")
    if other is not None and var != max(f.scope + other.scope, default=None):
        return project(combine(f, other, PARTNER[op], eps), var, op)
    if other is None:
        f = _with_inf_entry(f) if op == "max" else f
        scope, domains, keys = f.scope, f.domains, f.keys
        operands = (f.shared, SCALAR, domains, [True] * len(scope), [False] * len(scope))
        labels = range(len(keys))
    else:
        scope, domains, keys, operands, labels = _combine_call(f, other, PARTNER[op], eps)
    if var not in scope:
        raise FactorError(f"variable {var} not in scope {scope}")
    pos = scope.index(var)
    # ranked: the values best first, largest first (so inf first) for max
    ranked = keys if op == "min" else keys[::-1]
    if op == "max":
        labels = [len(keys) - 1 - n for n in labels]
    if pos == len(scope) - 1:
        shared, kept, growth = kernels.combine_entries(*operands, labels, True)
    else:  # f alone: a level the solver never removes
        shared, kept, growth = kernels.project_entries(_relabelled(f.shared, labels), domains, pos)
    keys = tuple(ranked[n] for n in kept)
    if op == "max":  # kept comes in ranked order
        keys = keys[::-1]
        shared = _relabelled(shared, range(len(keys) - 1, -1, -1))
    scope = scope[:pos] + scope[pos + 1 :]
    domains = domains[:pos] + domains[pos + 1 :]
    return DafsaFactor._from_shared(scope, domains, keys, shared), [growth]
