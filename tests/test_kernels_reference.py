"""Each kernel edition against an independent brute-force reference.

The equivalence fuzz compares the two editions with each other, so a
fault they share passes it.  Here each edition is checked on its own, on
small domains where every string can be enumerated:

* the language equals the one found by brute force;
* the result passes ``Dafsa.check_invariants``;
* its state count equals the number of distinct (level, right-language)
  classes, and its parts equal the canonical automaton built directly
  from those classes (one state per class, complete fans as wildcards,
  breadth-first numbering);
* ``raw_states`` equals a naive breadth-first count of the subsets
  reachable from the start, and ``nfa_states`` a count of the contracted
  automaton's states.
"""

import itertools
import random
import sys
from array import array

import pytest

import dafbe._kernels_py as KP
from dafbe.automata import Dafsa

from conftest import rand_nfa_parts

DOMS = [(), (1,), (2,), (1, 2), (2, 2), (3, 2), (2, 3, 2), (4, 2, 3), (2, 2, 2, 2), (3, 1, 2, 2)]
WILDCARD = -1


@pytest.fixture(params=["python", "compiled"])
def kernels(request):
    if request.param == "python":
        return KP
    return request.getfixturevalue("compiled_kernels")


# -- brute-force reference ---------------------------------------------------


def flat(d):
    return d.state_count, d.t_off, d.t_sym, d.t_dst, d.acc, d.start


def edge_lists(parts):
    n, t_off, t_sym, t_dst = parts[:4]
    return [list(zip(t_sym[t_off[s] : t_off[s + 1]], t_dst[t_off[s] : t_off[s + 1]])) for s in range(n)]


def language(edges, acc, start, dom):
    """Every string some path from ``start`` reads into ``acc``."""
    acc = set(acc)
    lang = set()
    for word in itertools.product(*(range(k) for k in dom)):
        cur = {start}
        for v in word:
            cur = {d for s in cur for sym, d in edges[s] if sym in (v, WILDCARD)}
        if cur & acc:
            lang.add(word)
    return lang


def reachable_subsets(edges, start, dom):
    """Distinct nonempty subsets a breadth-first walk reaches, one symbol at a time."""
    first = frozenset([start])
    seen = {first}
    frontier = [first]
    for k in dom:
        nxt = []
        for subset in frontier:
            for v in range(k):
                child = frozenset(d for s in subset for sym, d in edges[s] if sym in (v, WILDCARD))
                if child and child not in seen:
                    seen.add(child)
                    nxt.append(child)
        frontier = nxt
    return len(seen)


def right_language_classes(lang, dom):
    """Number of distinct (level, right language) pairs over all prefixes."""
    classes = set()
    for lv in range(len(dom) + 1):
        for prefix in {w[:lv] for w in lang}:
            classes.add((lv, frozenset(w[lv:] for w in lang if w[:lv] == prefix)))
    return len(classes)


def canonical_parts(lang, dom):
    """The canonical automaton of ``lang``, built from its right languages."""
    if not lang:
        return (0, 0), (), (), ()
    L = len(dom)
    root = frozenset(lang)
    ids = {root: 0}
    order = [root]
    off, sym, dst = [0], [], []
    for rest in order:  # a breadth-first queue
        lv = L - len(next(iter(rest)))
        if lv < L:
            kids = [frozenset(w[1:] for w in rest if w[0] == v) for v in range(dom[lv])]
            out = [(v, kid) for v, kid in enumerate(kids) if kid]
            if len(out) == dom[lv] and len(set(kids)) == 1:
                out = [(WILDCARD, kids[0])]
            for v, kid in out:
                if kid not in ids:
                    ids[kid] = len(order)
                    order.append(kid)
                sym.append(v)
                dst.append(ids[kid])
        off.append(len(sym))
    return tuple(off), tuple(sym), tuple(dst), (ids[frozenset([()])],)


def levels(edges, start):
    lev = {start: 0}
    order = [start]
    for s in order:
        for _, d in edges[s]:
            if d not in lev:
                lev[d] = lev[s] + 1
                order.append(d)
    return lev


def contract(edges, acc, start, lvl):
    """Contracted automaton: level-lvl states take their successors' edges."""
    lev = levels(edges, start)
    acc = set(acc)
    out = {}
    final = set()
    for s, lv in lev.items():
        if lv == lvl + 1:
            continue
        if lv == lvl:
            out[s] = sorted({e for _, t in edges[s] for e in edges[t]})
            if any(t in acc for _, t in edges[s]):
                final.add(s)
        else:
            out[s] = edges[s]
            if s in acc:
                final.add(s)
    return out, final


def check_result(parts, lang, dom):
    parts = tuple(tuple(p) for p in parts)
    d = Dafsa(tuple(dom), *(array("i", p) for p in parts))
    d.check_invariants()
    assert set(d.enumerate_strings()) == lang
    assert d.state_count == (right_language_classes(lang, dom) or 1)
    assert parts == canonical_parts(lang, dom)


def rand_dfa_parts(rng, dom):
    """Random leveled DFA that is not minimal: split states, complete
    literal fans onto one successor, states with no way to acceptance."""
    L = len(dom)
    per = [1] + [rng.randrange(1, 5) for _ in range(L)]
    levels_, base = [], 0
    for c in per:
        levels_.append(list(range(base, base + c)))
        base += c
    t_off, t_sym, t_dst = array("i", [0]), array("i"), array("i")
    for lv in range(L + 1):
        for s in levels_[lv]:
            roll = rng.random()
            if lv == L or roll < 0.15:
                out = []
            elif roll < 0.35:
                out = [(WILDCARD, rng.choice(levels_[lv + 1]))]
            elif roll < 0.5:
                d = rng.choice(levels_[lv + 1])
                out = [(v, d) for v in range(dom[lv])]
            else:
                out = [(v, rng.choice(levels_[lv + 1])) for v in range(dom[lv]) if rng.random() < 0.7]
            for v, d in out:
                t_sym.append(v)
                t_dst.append(d)
            t_off.append(len(t_sym))
    acc = array("i", sorted(rng.sample(levels_[L], rng.randrange(0, len(levels_[L]) + 1))))
    return base, t_off, t_sym, t_dst, acc, 0


# -- tests -------------------------------------------------------------------


class TestAgainstReference:
    def test_determinize(self, kernels):
        rng = random.Random(20261101)
        for trial in range(200):
            dom = rng.choice(DOMS)
            nfa = rand_nfa_parts(rng, dom)
            edges = edge_lists(nfa)
            *parts, raw_states = kernels.determinize(*nfa, dom)
            check_result(parts, language(edges, nfa[4], nfa[5], dom), dom)
            assert raw_states == reachable_subsets(edges, nfa[5], dom)

    def test_minimize(self, kernels):
        rng = random.Random(20261102)
        for trial in range(200):
            dom = rng.choice(DOMS)
            dfa = rand_dfa_parts(rng, dom)
            parts = kernels.minimize(*dfa, dom)
            check_result(parts, language(edge_lists(dfa), dfa[4], dfa[5], dom), dom)

    def test_remove_every_level(self, kernels):
        rng = random.Random(20261103)
        for trial in range(120):
            dom = rng.choice([d for d in DOMS if d])
            if rng.random() < 0.5:
                words = {tuple(rng.randrange(k) for k in dom) for _ in range(rng.randrange(0, 14))}
                src = flat(Dafsa.from_strings(dom, sorted(words)))
            else:
                src = rand_dfa_parts(rng, dom)
            edges = edge_lists(src)
            lang = language(edges, src[4], src[5], dom)
            for lvl in range(len(dom)):
                new_dom = dom[:lvl] + dom[lvl + 1 :]
                *parts, nfa_states, raw_states = kernels.remove_level(*src, dom, lvl)
                check_result(parts, {w[:lvl] + w[lvl + 1 :] for w in lang}, new_dom)
                contracted, _ = contract(edges, src[4], src[5], lvl)
                assert nfa_states == len(contracted)
                assert raw_states == reachable_subsets(contracted, src[5], new_dom)

    def test_deep_remove_level_runs_past_the_recursion_limit(self, kernels):
        L = 1500
        assert L > sys.getrecursionlimit()
        dom = (2,) * L
        rng = random.Random(20261104)
        words = sorted({tuple(rng.randrange(2) for _ in range(L)) for _ in range(6)})
        d = Dafsa.from_strings(dom, words)
        lvl = L // 2
        new_dom = dom[:lvl] + dom[lvl + 1 :]
        assert d._splice_wildcard_level(lvl, new_dom) is None  # the kernel's case
        *parts, nfa_states, raw_states = kernels.remove_level(*flat(d), dom, lvl)
        expected = Dafsa.from_strings(new_dom, {w[:lvl] + w[lvl + 1 :] for w in words})
        assert tuple(map(tuple, parts)) == tuple(
            map(tuple, (expected.t_off, expected.t_sym, expected.t_dst, expected.acc))
        )
        contracted, _ = contract(edge_lists(flat(d)), d.acc, d.start, lvl)
        assert nfa_states == len(contracted)
        assert raw_states == reachable_subsets(contracted, d.start, new_dom)
