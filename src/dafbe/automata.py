"""Leveled DAFSAs: sets of fixed-length strings with per-level alphabets.

A level-i edge consumes position i's symbol, so every accepted string has
the same length and position i's alphabet is ``range(domains[i])``.  The
wildcard symbol -1 matches every value of its level and never sits next to
a literal on the same state.

Instances are kept canonical at all times: minimal, states numbered
breadth-first from the start (edges in symbol order, wildcard first), and
every complete literal fan onto one successor collapsed to a wildcard
edge.  Minimal deterministic leveled automata are unique per language, so
``==`` is both structural and language equality.

A canonical automaton has at most one accepting state, the last one, so
it is also the one-label shared form of ``_kernels_py``, that state's
term 0: every kernel that builds a ``Dafsa`` returns it this way
(``_from_one_label``), and ``insert_wildcard_level`` also passes it in.

Every set operation is one ``product`` kernel call, an empty or
universal operand included: the kernel returns the same canonical parts
for those as for any other operand.
"""

from __future__ import annotations

import dataclasses
from array import array
from bisect import bisect_left
from typing import Iterable

from ._backend import BACKEND, kernels
from .errors import AutomatonError, EnumerationLimit

WILDCARD = -1
ENUMERATE_CAP = 1_000_000


# the shared form of a constant function: a lone root, terminal with label 0
SCALAR = (array("i", [0, 0]), array("i"), array("i"), array("i", [0]))


def _levels(t_off, t_dst, start):
    """Breadth-first level of every state from ``start``, -1 if unreached."""
    lev = [-1] * (len(t_off) - 1)
    lev[start] = 0
    order = [start]
    for s in order:  # grows while it is walked: a breadth-first queue
        nl = lev[s] + 1
        for d in t_dst[t_off[s] : t_off[s + 1]]:
            if lev[d] < 0:
                lev[d] = nl
                order.append(d)
    return lev


def _flat_from_edges(n, edges, accepting):
    """edges: iterable of (src, sym, dst). Returns CSR parts, syms sorted,
    for the caller to check with ``_check_parts``.

    Raises AutomatonError for a source id outside ``range(n)`` and an id
    or symbol that does not fit a C int.
    """
    per = [[] for _ in range(n)]
    for src, sym, dst in edges:
        if not 0 <= src < n:
            raise AutomatonError(f"edge {src}->{dst} starts outside 0..{n - 1}")
        per[src].append((sym, dst))
    t_off = array("i", [0])
    t_sym = array("i")
    t_dst = array("i")
    try:
        for out in per:
            out.sort()
            for sym, dst in out:
                t_sym.append(sym)
                t_dst.append(dst)
            t_off.append(len(t_sym))
        acc = array("i", sorted(set(accepting)))
    except OverflowError as err:
        raise AutomatonError(f"state id or symbol out of range: {err}") from None
    return t_off, t_sym, t_dst, acc


def _check_parts(domains, t_off, t_sym, t_dst, acc, start=0):
    """Raise unless the parts meet the flat-automaton contract; return levels.

    The checks of the compiled kernels' ``Automaton::load``: the CSR shape,
    every state id, and for each state ``start`` reaches, its symbols
    against the domain of its breadth-first level and that each of its
    edges runs to the next level.  A part that is not an ``array('i')`` is
    a TypeError, anything else an AutomatonError.  Returns ``_levels``.
    """
    for name, part in (("t_off", t_off), ("t_sym", t_sym), ("t_dst", t_dst), ("acc", acc)):
        if not isinstance(part, array) or part.typecode != "i":
            raise TypeError(f"{name} must be an array('i'), not {type(part).__name__}")
    n = len(t_off) - 1
    if n < 1:
        raise AutomatonError(f"t_off has {len(t_off)} entries, so there is no start state")
    edges = len(t_sym)
    if len(t_dst) != edges:
        raise AutomatonError(f"t_sym has {edges} entries but t_dst {len(t_dst)}")
    if t_off[0] != 0:
        raise AutomatonError(f"t_off starts at {t_off[0]}, not 0")
    for s in range(n):
        if t_off[s + 1] < t_off[s]:
            raise AutomatonError(f"t_off decreases at state {s}")
    if t_off[n] != edges:
        raise AutomatonError(f"t_off ends at {t_off[n]}, not at {edges} edges")
    for d in t_dst:
        if not 0 <= d < n:
            raise AutomatonError(f"destination {d} outside 0..{n - 1}")
    for a in acc:
        if not 0 <= a < n:
            raise AutomatonError(f"accepting state {a} outside 0..{n - 1}")
    if not 0 <= start < n:
        raise AutomatonError(f"start state {start} outside 0..{n - 1}")
    L = len(domains)
    lev = _levels(t_off, t_dst, start)
    for s, lv in enumerate(lev):
        lo, hi = t_off[s], t_off[s + 1]
        if lv < 0 or lo == hi:
            continue
        if lv >= L:
            raise AutomatonError(f"state {s}: edges beyond last level {L}")
        for v in t_sym[lo:hi]:
            if v != WILDCARD and not 0 <= v < domains[lv]:
                raise AutomatonError(f"state {s}: symbol {v} outside domain {domains[lv]} at level {lv}")
        for d in t_dst[lo:hi]:
            if lev[d] != lv + 1:
                raise AutomatonError(f"edge {s}->{d} does not run from level {lv} to the next")
    return lev


@dataclasses.dataclass(frozen=True, eq=False)
class Dafsa:
    """Canonical leveled DAFSA. Build via the classmethods, not directly.

    ``Dafsa(domains, t_off, t_sym, t_dst, acc)`` checks its parts as the
    compiled kernels do (``_check_parts``) and raises ``AutomatonError`` on
    malformed ones; it does not canonicalize them.  Parts that kernels
    build are trusted and skip the check (``_from_parts``), so the solver
    pays nothing for it.
    """

    domains: tuple[int, ...]
    t_off: array
    t_sym: array
    t_dst: array
    acc: array

    start = 0

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        _check_parts(self.domains, self.t_off, self.t_sym, self.t_dst, self.acc)

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_parts(cls, domains, parts):
        """Wrap trusted parts ``(t_off, t_sym, t_dst, acc)``, unchecked."""
        self = object.__new__(cls)
        t_off, t_sym, t_dst, acc = parts
        object.__setattr__(self, "domains", tuple(domains))
        object.__setattr__(self, "t_off", t_off)
        object.__setattr__(self, "t_sym", t_sym)
        object.__setattr__(self, "t_dst", t_dst)
        object.__setattr__(self, "acc", acc)
        return self

    @classmethod
    def _from_one_label(cls, domains, shared):
        """Read a one-label shared form: its terminal, if any, is the last state."""
        t_off, t_sym, t_dst, term = shared
        acc = array("i", [len(term) - 1] if term[-1] >= 0 else [])
        return cls._from_parts(domains, (t_off, t_sym, t_dst, acc))

    def _one_label(self):
        """The shared form with the accepting state, the last, labelled 0."""
        term = array("i", [-1]) * self.state_count
        for a in self.acc:
            term[a] = 0
        return self.t_off, self.t_sym, self.t_dst, term

    @classmethod
    def empty(cls, domains) -> "Dafsa":
        """The empty language over the given domains: a lone non-accepting start state."""
        return cls._from_parts(domains, (array("i", [0, 0]), array("i"), array("i"), array("i")))

    @classmethod
    def universal(cls, domains) -> "Dafsa":
        """All strings over the given domains: one wildcard edge per level."""
        L = len(domains)
        t_off = array("i", range(0, L + 1))
        t_off.append(L)
        t_sym = array("i", [WILDCARD] * L)
        t_dst = array("i", range(1, L + 1))
        return cls._from_parts(domains, (t_off, t_sym, t_dst, array("i", [L])))

    @classmethod
    def from_strings(cls, domains, words: Iterable) -> "Dafsa":
        """Compile an explicit set of strings (any order, duplicates fine)."""
        domains = tuple(domains)
        L = len(domains)
        uniq = sorted(set(map(tuple, words)))
        for w in uniq:
            if len(w) != L:
                raise AutomatonError(f"string {w} has length {len(w)}, expected {L}")
            for i, v in enumerate(w):
                if not 0 <= v < domains[i]:
                    raise AutomatonError(f"string {w}: symbol {v} outside domain {domains[i]} at position {i}")
        digits = array("i")
        for w in uniq:
            digits.extend(w)
        labels = array("i", [0]) * len(uniq)
        shared, _ = kernels.compile_sorted(digits, len(uniq), L, domains, labels, -1)
        return cls._from_one_label(domains, shared)

    @classmethod
    def from_transitions(cls, domains, n_states, edges, accepting, start=0) -> "Dafsa":
        """Build from explicit deterministic transitions, then canonicalize.

        The input must be deterministic (at most one edge per symbol per
        state, wildcard exclusive); it need not be minimal or canonically
        numbered.  Leveledness is checked, not assumed: the parts are
        checked from ``start`` as ``Dafsa(...)`` checks its own, so an edge
        that skips a level or runs back, as in a cycle, raises
        ``AutomatonError``.
        """
        domains = tuple(domains)
        t_off, t_sym, t_dst, acc = _flat_from_edges(n_states, edges, accepting)
        _check_parts(domains, t_off, t_sym, t_dst, acc, start)
        for s in range(n_states):
            lo, hi = t_off[s], t_off[s + 1]
            syms = t_sym[lo:hi].tolist()
            if len(set(syms)) != len(syms):
                raise AutomatonError(f"state {s}: duplicate symbol")
            if WILDCARD in syms and len(syms) > 1:
                raise AutomatonError(f"state {s}: wildcard next to literals")
        shared, _ = kernels.minimize((t_off, t_sym, t_dst, acc), start, domains)
        return cls._from_one_label(domains, shared)

    # -- basic queries -----------------------------------------------------

    @property
    def parts(self) -> tuple:
        """(t_off, t_sym, t_dst, acc), the form the kernels take."""
        return self.t_off, self.t_sym, self.t_dst, self.acc

    @property
    def length(self) -> int:
        return len(self.domains)

    @property
    def state_count(self) -> int:
        return len(self.t_off) - 1

    @property
    def edge_count(self) -> int:
        return len(self.t_sym)

    def is_empty(self) -> bool:
        return len(self.acc) == 0

    def __eq__(self, other):
        if not isinstance(other, Dafsa):
            return NotImplemented
        return (
            self.domains == other.domains
            and self.t_off == other.t_off
            and self.t_sym == other.t_sym
            and self.t_dst == other.t_dst
            and self.acc == other.acc
        )

    def __repr__(self):
        return (
            f"Dafsa(domains={self.domains}, states={self.state_count}, "
            f"edges={self.edge_count}, accepting={len(self.acc)})"
        )

    def accepts(self, word) -> bool:
        if len(word) != self.length:
            raise AutomatonError(f"word length {len(word)}, expected {self.length}")
        s = self.start
        for i, v in enumerate(word):
            if not 0 <= v < self.domains[i]:
                raise AutomatonError(f"symbol {v} outside domain {self.domains[i]} at position {i}")
            lo, hi = self.t_off[s], self.t_off[s + 1]
            if hi > lo and self.t_sym[lo] == WILDCARD:
                s = self.t_dst[lo]
                continue
            j = bisect_left(self.t_sym, v, lo, hi)
            if j == hi or self.t_sym[j] != v:
                return False
            s = self.t_dst[j]
        lo = bisect_left(self.acc, s)
        return lo < len(self.acc) and self.acc[lo] == s

    def state_levels(self) -> list:
        """BFS level of every state (canonical numbering has no orphans)."""
        return _levels(self.t_off, self.t_dst, self.start)

    def count_strings(self) -> int:
        """Exact accepted-string count (arbitrary precision)."""
        n = self.state_count
        lev = self.state_levels()
        counts = [0] * n
        for a in self.acc:
            counts[a] = 1
        for s in sorted(range(n), key=lambda q: -lev[q]):
            if lev[s] < 0 or counts[s]:
                continue
            total = 0
            for j in range(self.t_off[s], self.t_off[s + 1]):
                mult = self.domains[lev[s]] if self.t_sym[j] == WILDCARD else 1
                total += mult * counts[self.t_dst[j]]
            counts[s] = total
        return counts[self.start] if n else 0

    def enumerate_strings(self, cap: int = ENUMERATE_CAP) -> list:
        """All accepted strings in lexicographic order; errors above cap."""
        total = self.count_strings()
        if total > cap:
            raise EnumerationLimit(f"language has {total} strings, cap is {cap}")
        L = self.length
        acc_set = set(self.acc)
        if L == 0:
            return [()] if self.start in acc_set else []
        out = []
        word = [0] * L

        def steps(s, depth):
            """(symbol, child) of every edge of ``s``, a wildcard read as each value."""
            for j in range(self.t_off[s], self.t_off[s + 1]):
                sym = self.t_sym[j]
                d = self.t_dst[j]
                if sym == WILDCARD:
                    for v in range(self.domains[depth]):
                        yield v, d
                else:
                    yield sym, d

        stack = [steps(self.start, 0)]  # one edge iterator per level, depth first
        while stack:
            depth = len(stack) - 1
            for v, d in stack[-1]:
                word[depth] = v
                if depth + 1 < L:
                    stack.append(steps(d, depth + 1))
                    break
                if d in acc_set:
                    out.append(tuple(word))
            else:
                stack.pop()
        return out

    # -- set algebra ---------------------------------------------------------

    def _product(self, other, mode):
        if self.domains != other.domains:
            raise AutomatonError(f"domain mismatch: {self.domains} vs {other.domains}")
        shared, _ = kernels.product(mode, self.parts, other.parts, self.domains)
        return Dafsa._from_one_label(self.domains, shared)

    def intersect(self, other: "Dafsa") -> "Dafsa":
        return self._product(other, 0)

    def union(self, other: "Dafsa") -> "Dafsa":
        return self._product(other, 1)

    def difference(self, other: "Dafsa") -> "Dafsa":
        return self._product(other, 2)

    # -- level surgery -------------------------------------------------------

    def insert_wildcard_level(self, pos: int, k: int) -> "Dafsa":
        """Add a fresh ignored variable at position ``pos`` (domain size k).

        The new automaton accepts exactly the old strings with any value
        spliced in at ``pos``: one ``combine_entries`` walk of the one-label
        form with the constant ``SCALAR``, in which level ``pos`` is outside
        the automaton's scope and so reads as a wildcard.
        """
        if not 0 <= pos <= self.length:
            raise AutomatonError(f"insert position {pos} outside 0..{self.length}")
        if k < 1:
            raise AutomatonError(f"domain size {k} < 1")
        new_domains = self.domains[:pos] + (k,) + self.domains[pos:]
        in_self = [True] * len(new_domains)
        in_self[pos] = False
        shared, _, _ = kernels.combine_entries(
            self._one_label(), SCALAR, new_domains, in_self, [False] * len(new_domains),
            [0] * len(self.acc),
        )
        return Dafsa._from_one_label(new_domains, shared)

    def remove_level(self, pos: int) -> tuple:
        """Drop position ``pos``, keeping a string iff some value there led
        to acceptance.  Contraction can create nondeterminism, so the result
        is re-determinized; returns (dafsa, nfa_states, raw_dfa_states)
        where nfa_states counts the states of the contracted automaton and
        raw_dfa_states the distinct subsets visited.
        """
        if not 0 <= pos < self.length:
            raise AutomatonError(f"remove position {pos} outside 0..{self.length - 1}")
        new_domains = self.domains[:pos] + self.domains[pos + 1 :]
        shared, _, (nfa_states, raw_states) = kernels.remove_level(self.parts, self.domains, pos)
        return Dafsa._from_one_label(new_domains, shared), nfa_states, raw_states

    # -- diagnostics ---------------------------------------------------------

    def check_invariants(self):
        """Raise AutomatonError unless the parts are well formed and canonical. For tests."""
        off, sym = self.t_off, self.t_sym
        lev = _check_parts(self.domains, off, sym, self.t_dst, self.acc)
        for s in range(self.state_count):
            if lev[s] < 0:
                raise AutomatonError(f"state {s} unreachable")
            syms = sym[off[s] : off[s + 1]].tolist()
            if syms != sorted(set(syms)):
                raise AutomatonError(f"state {s}: symbols not sorted-unique")
            if WILDCARD in syms and len(syms) > 1:
                raise AutomatonError(f"state {s}: wildcard next to literals")
        for a in self.acc:
            if lev[a] != self.length:
                raise AutomatonError(f"accepting state {a} not at level {self.length}")
        # canonical numbering: a BFS in id order, edges in symbol order,
        # meets every state exactly when the ids run out in sequence
        seen = 1
        for d in self.t_dst:
            if d == seen:
                seen += 1
            elif d > seen:
                raise AutomatonError(f"state {d} not numbered breadth-first")

    def to_debug_text(self) -> str:
        """One 'level src symbol dst' line per edge, '*' for the wildcard."""
        lev = self.state_levels()
        lines = []
        for s in range(self.state_count):
            for j in range(self.t_off[s], self.t_off[s + 1]):
                sym = "*" if self.t_sym[j] == WILDCARD else str(self.t_sym[j])
                lines.append(f"{lev[s]} {s} {sym} {self.t_dst[j]}")
        lines.append("accepting " + " ".join(str(a) for a in self.acc))
        return "\n".join(lines) + "\n"


@dataclasses.dataclass(frozen=True, eq=False)
class Nfa:
    """Leveled nondeterministic automaton, the input side of determinize.

    States may repeat symbols and mix wildcards with literals; paths must
    still be leveled (all accepted strings the same length).  The parts
    are checked from ``start`` at construction, as ``Dafsa``'s are, and
    ``n_states`` must be their state count.
    """

    domains: tuple[int, ...]
    n_states: int
    t_off: array
    t_sym: array
    t_dst: array
    acc: array
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "domains", tuple(self.domains))
        _check_parts(self.domains, self.t_off, self.t_sym, self.t_dst, self.acc, self.start)
        if self.n_states != len(self.t_off) - 1:
            raise AutomatonError(f"n_states is {self.n_states}, but t_off has {len(self.t_off) - 1}")

    @classmethod
    def from_transitions(cls, domains, n_states, edges, accepting, start=0) -> "Nfa":
        return cls(domains, n_states, *_flat_from_edges(n_states, edges, accepting), start)

    def determinize(self) -> tuple:
        """Subset construction; returns (dafsa, raw_dfa_states) where
        raw_dfa_states counts the distinct subsets visited."""
        shared, _, raw_states = kernels.determinize(
            (self.t_off, self.t_sym, self.t_dst, self.acc), self.start, self.domains
        )
        return Dafsa._from_one_label(self.domains, shared), raw_states


__all__ = ["Dafsa", "Nfa", "WILDCARD", "ENUMERATE_CAP", "BACKEND"]
