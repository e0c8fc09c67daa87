"""Empty and universal operands, level splicing and the unique-table
``product`` kernel.

Every set operation runs ``product``, an empty or universal operand
included, and ``remove_level`` always runs its kernel, an all-wildcard
level included.
"""

import random

import pytest

from dafbe._backend import kernels
from dafbe.automata import Dafsa

from conftest import rand_dafsa


def parts(a):
    return (tuple(a.t_off), tuple(a.t_sym), tuple(a.t_dst), tuple(a.acc))


def kernel_product(a, b, mode):
    out = kernels.product(
        mode,
        a.state_count, a.t_off, a.t_sym, a.t_dst, a.acc, a.start,
        b.state_count, b.t_off, b.t_sym, b.t_dst, b.acc, b.start,
        a.domains,
    )
    return Dafsa._from_parts(a.domains, out)


def kernel_remove_level(a, pos):
    *out, nfa_states, raw_states = kernels.remove_level(
        a.state_count, a.t_off, a.t_sym, a.t_dst, a.acc, a.start, a.domains, pos,
    )
    return Dafsa._from_parts(a.domains[:pos] + a.domains[pos + 1 :], out), nfa_states, raw_states


def rand_domains(rng):
    # L = 0 and domain size 1 included
    return tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 5)))


def rand_automaton(rng, domains):
    """Empty, universal, or random strings with wildcard levels spliced in."""
    roll = rng.random()
    if roll < 0.1:
        return Dafsa.empty(domains)
    if roll < 0.2:
        return Dafsa.universal(domains)
    keep = [i for i in range(len(domains)) if rng.random() < 0.6]
    a = rand_dafsa(rng, tuple(domains[i] for i in keep), max_strings=rng.choice([1, 4, 12]))
    for pos in range(len(domains)):
        if pos not in keep:
            a = a.insert_wildcard_level(pos, domains[pos])
    return a


def enumerate_language(a):
    return set(a.enumerate_strings())


@pytest.fixture
def counted(monkeypatch):
    """Counts calls of the active kernels' ``remove_level``."""
    calls = {"remove_level": 0}
    original = kernels.remove_level

    def wrapper(*args):
        calls["remove_level"] += 1
        return original(*args)

    monkeypatch.setattr(kernels, "remove_level", wrapper)
    return calls


class TestIdentities:
    def test_difference_with_universal_is_empty(self):
        for dom in [(), (1,), (2, 3), (1, 2, 1)]:
            u = Dafsa.universal(dom)
            a = Dafsa.from_strings(dom, [tuple(0 for _ in dom)])
            assert a.difference(u) == Dafsa.empty(dom)
            assert u.difference(u) == Dafsa.empty(dom)
            assert u.difference(a).count_strings() == u.count_strings() - 1


class TestSplice:
    def test_splice_matches_the_kernel(self, counted):
        rng = random.Random(13)
        total = 0
        for trial in range(1500):
            dom = rand_domains(rng)
            a = rand_automaton(rng, dom)
            for pos in range(len(dom)):
                before = counted["remove_level"]
                got = a.remove_level(pos)
                assert counted["remove_level"] == before + 1, (a, pos)
                want, nfa_states, raw_states = kernel_remove_level(a, pos)
                assert parts(got[0]) == parts(want), (a, pos)
                assert got[0].domains == want.domains
                assert got[1:] == (nfa_states, raw_states), (a, pos)
                got[0].check_invariants()
                total += 1
        assert total > 2500

    def test_literal_levels_go_to_the_kernel(self, counted):
        # every level-1 state has one literal edge, into one shared successor
        a = Dafsa.from_strings((2, 2, 2), [(0, 0, 1), (1, 1, 1)])
        b, nfa_states, raw_states = a.remove_level(1)
        assert counted["remove_level"] == 1
        assert enumerate_language(b) == {(0, 1), (1, 1)}
        assert (b, nfa_states, raw_states) == kernel_remove_level(a, 1)

    def test_splice_inverts_insert(self):
        rng = random.Random(14)
        for trial in range(300):
            dom = rand_domains(rng)
            a = rand_automaton(rng, dom)
            pos = rng.randrange(len(dom) + 1)
            lifted = a.insert_wildcard_level(pos, rng.randrange(1, 4))
            back, nfa_states, raw_states = lifted.remove_level(pos)
            assert parts(back) == parts(a)
            if not a.is_empty():
                assert nfa_states == raw_states == a.state_count


class TestProductKernel:
    def test_matches_enumeration(self):
        rng = random.Random(15)
        for trial in range(800):
            dom = rand_domains(rng)
            a, b = rand_automaton(rng, dom), rand_automaton(rng, dom)
            la, lb = enumerate_language(a), enumerate_language(b)
            for mode, want in ((0, la & lb), (1, la | lb), (2, la - lb)):
                out = kernel_product(a, b, mode)
                out.check_invariants()
                assert enumerate_language(out) == want
                assert out == Dafsa.from_strings(dom, sorted(want))  # minimal, canonical


class TestLongAutomata:
    """Length well past the default recursion limit of 1000."""

    L = 1500

    def words(self, rng, count):
        return {tuple(rng.randrange(2) for _ in range(self.L)) for _ in range(count)}

    def test_product(self):
        rng = random.Random(16)
        dom = (2,) * self.L
        wa, wb = self.words(rng, 6), self.words(rng, 6)
        shared = min(wa)
        wb.add(shared)
        a, b = Dafsa.from_strings(dom, wa), Dafsa.from_strings(dom, wb)
        for mode, want in ((0, wa & wb), (1, wa | wb), (2, wa - wb)):
            out = kernel_product(a, b, mode)
            assert out.count_strings() == len(want)
            assert all(out.accepts(w) for w in want)
        assert kernel_product(a, b, 0) == Dafsa.from_strings(dom, [shared])

    def test_splice(self):
        rng = random.Random(17)
        a = Dafsa.from_strings((2,) * self.L, self.words(rng, 5))
        lifted = a.insert_wildcard_level(self.L // 2, 3)
        got = lifted.remove_level(self.L // 2)
        assert got == kernel_remove_level(lifted, self.L // 2)
        assert got[0] == a
