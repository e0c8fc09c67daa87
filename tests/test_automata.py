"""Automaton algebra checked against plain Python set semantics."""

import itertools
import random
from array import array

import pytest

from dafbe.automata import Dafsa, Nfa, WILDCARD
from dafbe.errors import AutomatonError, EnumerationLimit

from conftest import rand_dafsa, rand_word, run_python

DOMS = [(2,), (2, 2), (3, 2), (2, 3, 2), (4, 2, 3), (2, 2, 2, 2)]


def lang(a):
    return set(map(tuple, a.enumerate_strings()))


# (domains, n_states, t_off, t_sym, t_dst, acc) for the Nfa constructor
MALFORMED_NFA_PARTS = [
    ((2, 2), 3, (0, 2, 3, 3), (0, 1, 0), (1, 2, 2), (2,)),  # edge 1->2 stays on level 1
    ((2, 2), 5, (0, 2, 3, 3), (0, 1, 0), (1, 2, 2), (2,)),  # the same with 5 states claimed
    ((2, 2), 3, (0, 2, 3, 3), (0, 1, 0), (1, 2, 7), (2,)),  # destination 7 of 3 states
    ((2,), 4, (0, 2, 2, 2), (0, 1), (1, 2), (1, 2)),  # sound parts of 3 states, 4 claimed
]
NFA_PARTS_SCRIPT = f"""
from array import array
from dafbe.automata import Nfa
from dafbe.errors import AutomatonError
for domains, n_states, *parts in {MALFORMED_NFA_PARTS!r}:
    try:
        Nfa(domains, n_states, *(array("i", p) for p in parts)).determinize()
        print("accepted")
    except AutomatonError:
        print("AutomatonError")
"""


class TestConstruction:
    def test_empty(self):
        a = Dafsa.empty((2, 3))
        assert a.is_empty() and a.count_strings() == 0
        assert a.enumerate_strings() == []
        a.check_invariants()

    def test_universal(self):
        a = Dafsa.universal((2, 3, 2))
        assert a.count_strings() == 12
        assert a.state_count == 4  # pure wildcard chain
        a.check_invariants()

    def test_from_strings_roundtrip(self):
        rng = random.Random(7)
        for trial in range(200):
            dom = rng.choice(DOMS)
            words = sorted({rand_word(rng, dom) for _ in range(rng.randrange(0, 14))})
            a = Dafsa.from_strings(dom, words)
            assert a.enumerate_strings() == words
            assert a.count_strings() == len(words)
            a.check_invariants()

    def test_from_strings_rejects_garbage(self):
        with pytest.raises(AutomatonError):
            Dafsa.from_strings((2, 2), [(0, 1, 1)])
        with pytest.raises(AutomatonError):
            Dafsa.from_strings((2, 2), [(0, 5)])

    def test_from_transitions_matches_from_strings(self):
        by_edges = Dafsa.from_transitions(
            (2, 2), 4, [(0, 0, 1), (0, 1, 2), (1, WILDCARD, 3), (2, 0, 3)], [3]
        )
        by_words = Dafsa.from_strings((2, 2), [(0, 0), (0, 1), (1, 0)])
        assert by_edges == by_words

    def test_from_transitions_rejects_nondeterminism(self):
        with pytest.raises(AutomatonError):
            Dafsa.from_transitions((2,), 3, [(0, 0, 1), (0, 0, 2)], [1])
        with pytest.raises(AutomatonError):
            Dafsa.from_transitions((2,), 3, [(0, 0, 1), (0, WILDCARD, 2)], [1])

    @pytest.mark.parametrize(
        "cls, domains, n_states, edges, accepting, start",
        [
            (Dafsa, (2,), 2, [(0, 0, 7)], [1], 0),  # destination out of range
            (Dafsa, (2,), 2, [(0, 0, 1), (5, 0, 1)], [1], 0),  # source out of range
            (Dafsa, (2,), 2, [(0, 0, 1)], [9], 0),  # accepting id out of range
            (Dafsa, (2,), 2, [(0, 5, 1)], [1], 0),  # symbol outside the level's domain
            (Nfa, (2,), 2, [(0, 0, 7)], [1], 0),  # destination out of range
            (Dafsa, (2,), 2, [(0, 0, 1)], [1], 3),  # start out of range
            (Dafsa, (2, 2), 3, [(0, 0, 1), (0, 1, 2), (1, 0, 2)], [2], 0),  # 1->2 stays on level 1
            (Nfa, (2, 2), 3, [(0, 0, 1), (0, 1, 2), (1, 0, 2)], [2], 0),
            (Dafsa, (2, 2), 2, [(0, 0, 1), (1, 0, 0)], [1], 0),  # back to the start
            (Nfa, (2, 2), 2, [(0, 0, 1), (1, 0, 0)], [1], 0),
        ],
        ids=["dst", "src", "accepting", "symbol", "nfa-dst", "start",
             "non-leveled", "nfa-non-leveled", "cycle", "nfa-cycle"],
    )
    def test_from_transitions_rejects_malformed_input(self, cls, domains, n_states, edges, accepting, start):
        with pytest.raises(AutomatonError):
            cls.from_transitions(domains, n_states, edges, accepting, start=start)

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_nfa_constructor_checks_its_parts(self, compiled_src, backend):
        out = run_python(compiled_src, ["-c", NFA_PARTS_SCRIPT], backend)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["AutomatonError"] * len(MALFORMED_NFA_PARTS)

    def test_zero_length_domains(self):
        a = Dafsa.from_strings((), [()])
        assert a.count_strings() == 1 and a.accepts(())
        b = Dafsa.from_strings((), [])
        assert b.is_empty()


class TestQueries:
    def test_accepts_agrees_with_enumeration(self, rng):
        for trial in range(100):
            dom = rng.choice(DOMS)
            a = rand_dafsa(rng, dom)
            members = lang(a)
            for _ in range(20):
                w = rand_word(rng, dom)
                assert a.accepts(w) == (w in members)

    def test_accepts_length_mismatch(self):
        a = Dafsa.universal((2, 2))
        with pytest.raises(AutomatonError):
            a.accepts((0,))

    def test_count_without_enumeration(self, rng):
        # wildcard multiplication is exercised by the universal automaton
        for dom in DOMS:
            assert Dafsa.universal(dom).count_strings() == _prod(dom)

    def test_enumeration_cap(self):
        a = Dafsa.universal((10,) * 7)
        with pytest.raises(EnumerationLimit):
            a.enumerate_strings(cap=10**6)


def _prod(dom):
    out = 1
    for k in dom:
        out *= k
    return out


class TestSetOps:
    def test_set_semantics(self, rng):
        for trial in range(300):
            dom = rng.choice(DOMS)
            a, b = rand_dafsa(rng, dom), rand_dafsa(rng, dom)
            la, lb = lang(a), lang(b)
            assert lang(a.intersect(b)) == la & lb
            assert lang(a.union(b)) == la | lb
            assert lang(a.difference(b)) == la - lb

    def test_outputs_canonical(self, rng):
        # op output must be structurally identical to compiling its language
        for trial in range(120):
            dom = rng.choice(DOMS)
            a, b = rand_dafsa(rng, dom), rand_dafsa(rng, dom)
            for out in (a.intersect(b), a.union(b), a.difference(b)):
                out.check_invariants()
                rebuilt = Dafsa.from_strings(dom, sorted(lang(out)))
                assert out == rebuilt
                assert out.state_count == rebuilt.state_count

    def test_algebraic_laws(self, rng):
        for trial in range(60):
            dom = rng.choice(DOMS)
            a, b, c = (rand_dafsa(rng, dom) for _ in range(3))
            assert a.union(b) == b.union(a)
            assert a.union(b.union(c)) == a.union(b).union(c)
            assert a.intersect(b.union(c)) == a.intersect(b).union(a.intersect(c))
            assert a.difference(b.union(c)) == a.difference(b).difference(c)

    def test_domain_mismatch(self):
        with pytest.raises(AutomatonError):
            Dafsa.universal((2, 2)).intersect(Dafsa.universal((2, 3)))

    def test_universal_identities(self, rng):
        for dom in DOMS:
            a = rand_dafsa(rng, dom)
            u = Dafsa.universal(dom)
            assert a.intersect(u) == a
            assert a.union(Dafsa.empty(dom)) == a
            assert lang(u.difference(a)) == lang(u) - lang(a)


class TestEquality:
    def test_structural_equality_is_language_equality(self, rng):
        for trial in range(100):
            dom = rng.choice(DOMS)
            a, b = rand_dafsa(rng, dom), rand_dafsa(rng, dom)
            assert (a == b) == (lang(a) == lang(b))

    def test_hash_free_dataclass(self):
        a = Dafsa.universal((2,))
        assert a != object()


class TestDeterminize:
    def test_language_preserved(self, rng):
        for trial in range(150):
            dom = rng.choice(DOMS)
            nfa, members = _rand_nfa(rng, dom)
            dfa, raw = nfa.determinize()
            dfa.check_invariants()
            assert lang(dfa) == members
            assert raw >= dfa.state_count or dfa.is_empty()

    def test_raw_state_count_reported(self):
        # two nondeterministic branches that merge: subset construction
        # visits more raw states than the minimized result keeps
        nfa = Nfa.from_transitions(
            (2, 2), 6,
            [(0, 0, 1), (0, 0, 2), (0, 1, 2), (1, 0, 3), (2, 0, 4), (2, 1, 5)],
            [3, 4, 5],
        )
        dfa, raw = nfa.determinize()
        assert raw >= dfa.state_count >= 1


def _rand_nfa(rng, dom):
    L = len(dom)
    per = [rng.randrange(1, 4) for _ in range(L + 1)]
    levels, base = [], 0
    for c in per:
        levels.append(list(range(base, base + c)))
        base += c
    edges = set()
    for lv in range(L):
        for s in levels[lv]:
            for _ in range(rng.randrange(0, 4)):
                sym = WILDCARD if rng.random() < 0.3 else rng.randrange(dom[lv])
                edges.add((s, sym, rng.choice(levels[lv + 1])))
    acc = sorted(rng.sample(levels[L], rng.randrange(0, len(levels[L]) + 1)))
    nfa = Nfa.from_transitions(dom, base, sorted(edges), acc)

    # reference semantics by explicit path walking
    members = set()
    for w in itertools.product(*(range(k) for k in dom)):
        frontier = {0}
        for lv, v in enumerate(w):
            nxt = set()
            for s in frontier:
                for j in range(nfa.t_off[s], nfa.t_off[s + 1]):
                    if nfa.t_sym[j] in (WILDCARD, v):
                        nxt.add(nfa.t_dst[j])
            frontier = nxt
        if frontier & set(acc):
            members.add(w)
    return nfa, members


def naive_insert(a, pos, k):
    """Reference lift: a wildcard prime before every level-``pos`` state,
    in-edges redirected to it, canonicalized by a full minimize."""
    n = a.state_count
    lev = a.state_levels()
    prime = {s: n + i for i, s in enumerate(s for s in range(n) if lev[s] == pos)}
    edges = [(p, WILDCARD, s) for s, p in prime.items()]
    for s in range(n):
        for j in range(a.t_off[s], a.t_off[s + 1]):
            d = a.t_dst[j]
            edges.append((s, a.t_sym[j], prime.get(d, d)))
    domains = a.domains[:pos] + (k,) + a.domains[pos:]
    start = prime.get(a.start, a.start)
    return Dafsa.from_transitions(domains, n + len(prime), edges, a.acc, start=start)


class TestLevelSurgery:
    def test_insert_matches_naive_lift(self):
        rng = random.Random(7)
        cases = [(Dafsa.empty(()), 0), (Dafsa.universal(()), 0), (Dafsa.empty((2, 3)), 1)]
        for trial in range(2400):
            dom = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 5)))
            a = rand_dafsa(rng, dom, max_strings=rng.choice([0, 1, 12, 40]))
            cases.append((a, rng.choice([0, len(dom), rng.randrange(len(dom) + 1)])))
        for a, pos in cases:
            k = rng.choice([1, 2, 3])
            b = a.insert_wildcard_level(pos, k)
            assert b == naive_insert(a, pos, k)
            b.check_invariants()
            pos2 = rng.randrange(b.length + 1)
            c = b.insert_wildcard_level(pos2, 2)
            assert c == naive_insert(b, pos2, 2)
            c.check_invariants()

    def test_insert_wildcard_semantics(self, rng):
        for trial in range(100):
            dom = rng.choice(DOMS)
            a = rand_dafsa(rng, dom)
            pos = rng.randrange(0, len(dom) + 1)
            k = rng.randrange(1, 4)
            b = a.insert_wildcard_level(pos, k)
            b.check_invariants()
            want = {w[:pos] + (v,) + w[pos:] for w in lang(a) for v in range(k)}
            assert lang(b) == want
            assert b.count_strings() == a.count_strings() * k

    def test_remove_level_semantics(self, rng):
        for trial in range(100):
            dom = rng.choice(DOMS)
            a = rand_dafsa(rng, dom)
            pos = rng.randrange(0, len(dom))
            b, nfa_states, raw_states = a.remove_level(pos)
            b.check_invariants()
            assert lang(b) == {w[:pos] + w[pos + 1 :] for w in lang(a)}
            assert nfa_states >= 1
            assert raw_states >= b.state_count or b.is_empty()

    def test_insert_then_remove_is_identity(self, rng):
        for trial in range(50):
            dom = rng.choice(DOMS)
            a = rand_dafsa(rng, dom)
            pos = rng.randrange(0, len(dom) + 1)
            b, _, _ = a.insert_wildcard_level(pos, 3).remove_level(pos)
            assert b == a

    def test_position_bounds(self):
        a = Dafsa.universal((2, 2))
        with pytest.raises(AutomatonError):
            a.insert_wildcard_level(3, 2)
        with pytest.raises(AutomatonError):
            a.remove_level(2)


class TestInvariants:
    def test_rejects_non_bfs_numbering(self):
        # universal((2, 2)) with ids 1 and 2 swapped: 0 -*-> 2 -*-> 1
        a = Dafsa((2, 2), array("i", [0, 1, 1, 2]), array("i", [WILDCARD] * 2),
                  array("i", [2, 1]), array("i", [1]))
        assert a.accepts((0, 1))
        with pytest.raises(AutomatonError, match="breadth-first"):
            a.check_invariants()


class TestDebugText:
    def test_golden_branching_automaton(self):
        a = Dafsa.from_strings((2, 2, 2), [(1, 0, 0), (1, 1, 0)])
        assert a.to_debug_text() == "0 0 1 1\n1 1 * 2\n2 2 0 3\naccepting 3\n"

    def test_deterministic_output(self, rng):
        a = rand_dafsa(rng, (2, 3, 2))
        assert a.to_debug_text() == a.to_debug_text()
