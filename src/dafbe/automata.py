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

Every edge runs from level l to level l + 1, so a breadth-first numbering
gives each level one contiguous id range: level 0 is ``[0, 1)`` and the
level after ``[a, b)`` is ``[b, 1 + max destination of a..b-1)``.
``insert_wildcard_level`` relies on this to splice a level in by shifting
ids instead of rebuilding and minimizing, and ``remove_level`` to splice
out a level whose every state has one wildcard edge, the exact inverse;
any other level goes to the kernel.

Where an operand's shape fixes the answer, set operations return without
a kernel call: A & U = A, A | U = U, A - U = empty, and an empty operand
gives A & 0 = 0, A | 0 = A, A - 0 = A, 0 - B = 0.  Being canonical, the
returned operand is exactly what the kernel would have built.  The
universal automaton is recognized in O(L): ``is_universal``.
"""

from __future__ import annotations

import dataclasses
from array import array
from bisect import bisect_left
from typing import Iterable, Iterator

from ._backend import BACKEND, kernels
from .errors import AutomatonError, EnumerationLimit

WILDCARD = -1
ENUMERATE_CAP = 1_000_000


def _flat_from_edges(domains, n, edges, accepting, start):
    """edges: iterable of (src, sym, dst). Returns CSR parts, syms sorted.

    Raises AutomatonError for a state id outside ``range(n)`` (edge ends,
    accepting ids, ``start``), for a symbol that is neither a wildcard nor
    a value of its level's domain, and for an edge past the last level.
    A state's level is its breadth-first depth from ``start``, as the
    kernels count it; edges of states ``start`` cannot reach are not
    checked against a domain.
    """
    if not 0 <= start < n:
        raise AutomatonError(f"start state {start} outside 0..{n - 1}")
    per = [[] for _ in range(n)]
    for src, sym, dst in edges:
        if not (0 <= src < n and 0 <= dst < n):
            raise AutomatonError(f"edge {src}->{dst} names a state outside 0..{n - 1}")
        per[src].append((sym, dst))
    for a in accepting:
        if not 0 <= a < n:
            raise AutomatonError(f"accepting state {a} outside 0..{n - 1}")
    level = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for s in frontier:
            lv = level[s]
            for sym, dst in per[s]:
                if lv >= len(domains):
                    raise AutomatonError(f"state {s}: edges beyond last level {len(domains)}")
                if sym != WILDCARD and not 0 <= sym < domains[lv]:
                    raise AutomatonError(
                        f"state {s}: symbol {sym} outside domain {domains[lv]} at level {lv}"
                    )
                if dst not in level:
                    level[dst] = lv + 1
                    nxt.append(dst)
        frontier = nxt
    t_off = array("i", [0])
    t_sym = array("i")
    t_dst = array("i")
    for s in range(n):
        per[s].sort()
        for sym, dst in per[s]:
            t_sym.append(sym)
            t_dst.append(dst)
        t_off.append(len(t_sym))
    return t_off, t_sym, t_dst, array("i", sorted(set(accepting)))


@dataclasses.dataclass(frozen=True, eq=False)
class Dafsa:
    """Canonical leveled DAFSA. Build via the classmethods, not directly."""

    domains: tuple[int, ...]
    t_off: array
    t_sym: array
    t_dst: array
    acc: array

    start = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def _from_parts(cls, domains, parts):
        t_off, t_sym, t_dst, acc = parts
        return cls(tuple(domains), t_off, t_sym, t_dst, acc)

    @classmethod
    def empty(cls, domains) -> "Dafsa":
        """The empty language over the given domains."""
        return cls._from_parts(domains, kernels._empty_parts())

    @classmethod
    def universal(cls, domains) -> "Dafsa":
        """All strings over the given domains: one wildcard edge per level."""
        L = len(domains)
        t_off = array("i", range(0, L + 1))
        t_off.append(L)
        t_sym = array("i", [WILDCARD] * L)
        t_dst = array("i", range(1, L + 1))
        return cls(tuple(domains), t_off, t_sym, t_dst, array("i", [L]))

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
        return cls._from_parts(domains, kernels.compile_sorted(digits, len(uniq), L, domains))

    @classmethod
    def from_transitions(cls, domains, n_states, edges, accepting, start=0) -> "Dafsa":
        """Build from explicit deterministic transitions, then canonicalize.

        The input must already be leveled and deterministic (at most one
        edge per symbol per state, wildcard exclusive); it need not be
        minimal or canonically numbered.
        """
        domains = tuple(domains)
        t_off, t_sym, t_dst, acc = _flat_from_edges(domains, n_states, edges, accepting, start)
        for s in range(n_states):
            lo, hi = t_off[s], t_off[s + 1]
            syms = t_sym[lo:hi].tolist()
            if len(set(syms)) != len(syms):
                raise AutomatonError(f"state {s}: duplicate symbol")
            if WILDCARD in syms and len(syms) > 1:
                raise AutomatonError(f"state {s}: wildcard next to literals")
        return cls._from_parts(
            domains, kernels.minimize(n_states, t_off, t_sym, t_dst, acc, start, domains)
        )

    # -- basic queries -----------------------------------------------------

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
        n = self.state_count
        lev = [-1] * n
        lev[self.start] = 0
        order = [self.start]
        head = 0
        while head < len(order):
            s = order[head]
            head += 1
            nl = lev[s] + 1
            for j in range(self.t_off[s], self.t_off[s + 1]):
                d = self.t_dst[j]
                if lev[d] < 0:
                    lev[d] = nl
                    order.append(d)
        return lev

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
        out = []
        L = self.length
        acc_set = set(self.acc)
        word = [0] * L

        def walk(s, depth):
            if depth == L:
                if s in acc_set:
                    out.append(tuple(word))
                return
            for j in range(self.t_off[s], self.t_off[s + 1]):
                sym = self.t_sym[j]
                d = self.t_dst[j]
                if sym == WILDCARD:
                    for v in range(self.domains[depth]):
                        word[depth] = v
                        walk(d, depth + 1)
                else:
                    word[depth] = sym
                    walk(d, depth + 1)

        walk(self.start, 0)
        return out

    # -- set algebra ---------------------------------------------------------

    def _check_same_domains(self, other):
        if self.domains != other.domains:
            raise AutomatonError(f"domain mismatch: {self.domains} vs {other.domains}")

    def is_universal(self) -> bool:
        """True iff every string is accepted, read off the shape in O(L).

        A nonempty canonical automaton has at least one edge per level, so
        exactly ``length`` edges, all of them wildcards, is the universal
        chain and nothing else.
        """
        L = self.length
        return len(self.acc) == 1 and len(self.t_sym) == L and self.t_sym.count(WILDCARD) == L

    def _product(self, other, mode):
        parts = kernels.product(
            mode,
            self.state_count, self.t_off, self.t_sym, self.t_dst, self.acc, self.start,
            other.state_count, other.t_off, other.t_sym, other.t_dst, other.acc, other.start,
            self.domains,
        )
        return Dafsa._from_parts(self.domains, parts)

    def intersect(self, other: "Dafsa") -> "Dafsa":
        self._check_same_domains(other)
        if self.is_empty() or other.is_universal():
            return self
        if other.is_empty() or self.is_universal():
            return other
        return self._product(other, 0)

    def union(self, other: "Dafsa") -> "Dafsa":
        self._check_same_domains(other)
        if self.is_empty() or other.is_universal():
            return other
        if other.is_empty() or self.is_universal():
            return self
        return self._product(other, 1)

    def difference(self, other: "Dafsa") -> "Dafsa":
        self._check_same_domains(other)
        if self.is_empty() or other.is_empty():
            return self
        if other.is_universal():
            return Dafsa.empty(self.domains)
        return self._product(other, 2)

    # -- level surgery -------------------------------------------------------

    def insert_wildcard_level(self, pos: int, k: int) -> "Dafsa":
        """Add a fresh ignored variable at position ``pos`` (domain size k).

        Every old level-``pos`` state gets a wildcard predecessor, its
        prime, so the new automaton accepts exactly the old strings with
        any value spliced in at ``pos``.  Level ``pos`` holds the ids
        ``[a, b)``; the primes take those ids in the same order and every
        old id from ``a`` on moves up by ``b - a``.  Edges into level
        ``pos`` then reach the primes unchanged, and the result is
        minimal and canonically numbered with no merge pass.
        """
        if not 0 <= pos <= self.length:
            raise AutomatonError(f"insert position {pos} outside 0..{self.length}")
        if k < 1:
            raise AutomatonError(f"domain size {k} < 1")
        new_domains = self.domains[:pos] + (k,) + self.domains[pos:]
        if self.is_empty():
            return Dafsa.empty(new_domains)
        t_off, t_sym, t_dst = self.t_off, self.t_sym, self.t_dst
        a, b = 0, 1
        for _ in range(pos):
            a, b = b, max(t_dst[t_off[a] : t_off[b]]) + 1
        shift = (b - a).__add__
        e = t_off[a]
        off = t_off[: a + 1]
        off.extend(range(e + 1, e + b - a + 1))
        off.extend(map(shift, t_off[a + 1 :]))
        sym = t_sym[:e]
        sym.extend([WILDCARD] * (b - a))
        sym.extend(t_sym[e:])
        dst = t_dst[:e]
        dst.extend(range(b, 2 * b - a))
        dst.extend(map(shift, t_dst[e:]))
        return Dafsa(new_domains, off, sym, dst, array("i", map(shift, self.acc)))

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
        if not self.is_empty():
            spliced = self._splice_wildcard_level(pos, new_domains)
            if spliced is not None:
                n = spliced.state_count
                return spliced, n, n
        t_off, t_sym, t_dst, acc, nfa_states, raw_states = kernels.remove_level(
            self.state_count, self.t_off, self.t_sym, self.t_dst, self.acc,
            self.start, self.domains, pos,
        )
        return Dafsa._from_parts(new_domains, (t_off, t_sym, t_dst, acc)), nfa_states, raw_states

    def _splice_wildcard_level(self, pos, new_domains):
        """``remove_level`` of an all-wildcard level, or None if it is not one.

        The exact inverse of ``insert_wildcard_level``: when each of the w
        states of level ``pos``, ids ``[a, b)``, has one edge and it is a
        wildcard, minimality gives them w distinct successors, which BFS
        numbering puts at ``[b, b + w)`` in the same order.  Dropping the
        level-``pos`` states and shifting every later id down by w lets
        the successors take their places, and the result is canonical.
        Contraction then meets no nondeterminism, so the kernel would count
        n - w states both before and after determinizing.  Single literal
        edges do not qualify: two states may reach one successor by
        different literals, and they would coincide once the level is gone.
        """
        t_off, t_sym, t_dst = self.t_off, self.t_sym, self.t_dst
        a, b = 0, 1
        for _ in range(pos):
            a, b = b, max(t_dst[t_off[a] : t_off[b]]) + 1
        e, f = t_off[a], t_off[b]
        w = b - a
        if f - e != w or t_sym[e:f].count(WILDCARD) != w:
            return None
        shift = (-w).__add__
        off = t_off[:a]
        off.extend(map(shift, t_off[b:]))
        sym = t_sym[:e]
        sym.extend(t_sym[f:])
        dst = t_dst[:e]
        dst.extend(map(shift, t_dst[f:]))
        return Dafsa(new_domains, off, sym, dst, array("i", map(shift, self.acc)))

    # -- diagnostics ---------------------------------------------------------

    def check_invariants(self):
        """Raise AutomatonError on any structural violation. For tests."""
        n = self.state_count
        if n == 0:
            raise AutomatonError("no states")
        off = self.t_off
        if off[0] != 0 or off[-1] != len(self.t_sym) or len(self.t_sym) != len(self.t_dst):
            raise AutomatonError("bad CSR arrays")
        lev = self.state_levels()
        L = self.length
        for s in range(n):
            if lev[s] < 0 and n > 1:
                raise AutomatonError(f"state {s} unreachable")
            lo, hi = off[s], off[s + 1]
            if hi < lo:
                raise AutomatonError("offsets not monotone")
            syms = self.t_sym[lo:hi].tolist()
            if syms != sorted(syms) or len(set(syms)) != len(syms):
                raise AutomatonError(f"state {s}: symbols not sorted-unique")
            if WILDCARD in syms and len(syms) > 1:
                raise AutomatonError(f"state {s}: wildcard next to literals")
            if hi > lo and lev[s] >= L:
                raise AutomatonError(f"state {s}: edges beyond last level")
            for j in range(lo, hi):
                if self.t_sym[j] != WILDCARD and not 0 <= self.t_sym[j] < self.domains[lev[s]]:
                    raise AutomatonError(f"state {s}: symbol {self.t_sym[j]} out of domain")
                if not 0 <= self.t_dst[j] < n:
                    raise AutomatonError(f"state {s}: destination out of range")
                if lev[self.t_dst[j]] != lev[s] + 1:
                    raise AutomatonError(f"edge {s}->{self.t_dst[j]} skips levels")
        for a in self.acc:
            if lev[a] != L:
                raise AutomatonError(f"accepting state {a} not at level {L}")
        # canonical numbering: a BFS in id order, edges in symbol order,
        # meets every state exactly when the ids run out in sequence
        seen = 1
        for s in range(n):
            for d in self.t_dst[off[s] : off[s + 1]]:
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
    still be leveled (all accepted strings the same length).
    """

    domains: tuple[int, ...]
    n_states: int
    t_off: array
    t_sym: array
    t_dst: array
    acc: array
    start: int = 0

    @classmethod
    def from_transitions(cls, domains, n_states, edges, accepting, start=0) -> "Nfa":
        domains = tuple(domains)
        t_off, t_sym, t_dst, acc = _flat_from_edges(domains, n_states, edges, accepting, start)
        return cls(domains, n_states, t_off, t_sym, t_dst, acc, start)

    def determinize(self) -> tuple:
        """Subset construction; returns (dafsa, raw_dfa_states) where
        raw_dfa_states counts the distinct subsets visited."""
        t_off, t_sym, t_dst, acc, raw_states = kernels.determinize(
            self.n_states, self.t_off, self.t_sym, self.t_dst, self.acc,
            self.start, self.domains,
        )
        return Dafsa._from_parts(self.domains, (t_off, t_sym, t_dst, acc)), raw_states


__all__ = ["Dafsa", "Nfa", "WILDCARD", "ENUMERATE_CAP", "BACKEND"]
