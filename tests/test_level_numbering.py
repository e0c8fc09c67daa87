"""The Python kernels number each level's states as they build them.

``_Shared`` gives the states of a level ids in the order the level's
nodes first reach them, and every walk lists a level's nodes in the
order their parents first name them, so the result comes out numbered
breadth-first with no renumbering pass.  These checks run on the Python
edition alone, so they need no compiler:

* every result of every walking kernel is its own breadth-first
  renumbering (a breadth-first search from state 0, edges in symbol
  order, meets the states in id order), reaches every state, and has no
  edgeless state but its terminals, or the lone root of the empty
  function;
* three cases pin what numbering as one builds can get wrong: a node
  whose kids all vanish is DEAD, a default node that no run takes gets
  no state, and a default node taken below a literal child is numbered
  first.  These run on both editions.
"""

import itertools
import random
from array import array

import dafbe._kernels_py as KP
from dafbe.automata import Dafsa

from conftest import flat, rand_nfa_parts
from test_kernels_equiv import DOMS, rand_dfa_parts, rand_labelled_entries, rand_words


def check_numbering(shared):
    """``shared`` is numbered breadth-first, every state reached, and only
    terminals (or an empty function's root) have no edges."""
    off, sym, dst, term = shared
    n = len(off) - 1
    order = [0]
    seen = {0}
    for s in order:  # grows while it is walked: a breadth-first queue
        symbols = list(sym[off[s] : off[s + 1]])
        assert symbols == sorted(set(symbols)), (s, flat(shared))
        for d in dst[off[s] : off[s + 1]]:
            if d not in seen:
                seen.add(d)
                order.append(d)
    assert order == list(range(n)), flat(shared)
    edgeless = [s for s in range(n) if off[s] == off[s + 1] and term[s] < 0]
    assert edgeless == [] or (n == 1 and edgeless == [0]), flat(shared)  # the empty function
    return shared


def one_label_parts(dom, words):
    return Dafsa.from_strings(dom, words).parts


def rand_table(rng, dom):
    """compile_sorted's arguments for random rows, labels and default."""
    words = rand_words(rng, dom)
    digits = array("i", [v for w in words for v in w])
    labels = array("i", [rng.randrange(-1, 4) for _ in words])
    return digits, len(words), len(dom), dom, labels, rng.choice((-1, 0, 2))


class TestBreadthFirstAsBuilt:
    def test_compile_sorted(self):
        rng = random.Random(20261019)
        for trial in range(400):
            dom = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 5)))
            check_numbering(KP.compile_sorted(*rand_table(rng, dom))[0])

    def test_combine_entries_with_and_without_fold(self):
        rng = random.Random(20261020)
        for trial in range(300):
            dom = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 5)))
            reads = [rng.choice(("a", "b", "ab", "")) for _ in dom]
            ops = []
            for side in "ab":
                inside = [side in r for r in reads]
                sub = tuple(k for k, read in zip(dom, inside) if read)
                shared, labels = KP.join(rand_labelled_entries(rng, sub), sub)
                ops.append((shared, inside, len(labels)))
            (a, in_a, na), (b, in_b, nb) = ops
            pair_labels = [rng.randrange(-1, 6) for _ in range(na * nb)]
            for fold in (False, True):
                check_numbering(KP.combine_entries(a, b, dom, in_a, in_b, pair_labels, fold)[0])

    def test_project_entries_on_every_level(self):
        rng = random.Random(20261021)
        for trial in range(200):
            dom = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(1, 5)))
            shared, _ = KP.compile_sorted(*rand_table(rng, dom))
            for lvl in range(len(dom)):
                check_numbering(KP.project_entries(shared, dom, lvl)[0])

    def test_join(self):
        rng = random.Random(20261022)
        for trial in range(200):
            dom = rng.choice(DOMS)
            check_numbering(KP.join(rand_labelled_entries(rng, dom), dom)[0])

    def test_product_determinize_minimize_and_remove_level(self):
        rng = random.Random(20261023)
        for trial in range(200):
            dom = rng.choice(DOMS)
            a = rand_dfa_parts(rng, dom)
            b = one_label_parts(dom, rand_words(rng, dom)) if trial % 2 else rand_dfa_parts(rng, dom)
            for mode in (0, 1, 2):
                check_numbering(KP.product(mode, a, b, dom)[0])
                check_numbering(KP.product(mode, b, a, dom)[0])
            check_numbering(KP.minimize(a, 0, dom)[0])
            nfa, start = rand_nfa_parts(rng, dom)
            check_numbering(KP.determinize(nfa, start, dom)[0])
            for lvl in range(len(dom)):
                check_numbering(KP.remove_level(nfa, dom, lvl)[0])


class TestNumberingTraps:
    def test_a_node_whose_kids_all_vanish_is_dead(self, kernels):
        # under symbol 0 both operands read level 1 and name no common
        # symbol, so that pair has no kid although none of its kids is DEAD
        dom = (2, 3)
        a = KP.join([one_label_parts(dom, [(0, 0), (1, 1)])], dom)[0]
        b = KP.join([one_label_parts(dom, [(0, 1), (0, 2), (1, 1)])], dom)[0]
        for fold, kept, words in ((False, dom, [(1, 1)]), (True, dom[:1], [(1,)])):
            want = KP.join([one_label_parts(kept, words)], kept)[0]
            got = kernels.combine_entries(a, b, dom, [1, 1], [1, 1], [4], fold)
            assert flat(got[:2]) == (flat(want), (4,))
            check_numbering(got[0])

    def test_a_default_no_run_takes_gets_no_state(self, kernels):
        # every level's runs name every symbol, so no string takes the default
        dom = (2, 2)
        rows = list(itertools.product(range(2), range(2)))
        digits = array("i", [v for w in rows for v in w])
        got = kernels.compile_sorted(digits, 4, 2, dom, array("i", [1, 2, 2, 1]), 0)
        want = KP.join([one_label_parts(dom, []), one_label_parts(dom, [(0, 0), (1, 1)]),
                        one_label_parts(dom, [(0, 1), (1, 0)])], dom)
        assert flat(got) == flat(want)
        assert got[1] == [1, 2]
        check_numbering(got[0])

    def test_a_default_taken_below_a_literal_is_numbered_first(self, kernels):
        # one run names only symbol 2 of level 0, so symbols 0 and 1 lead
        # to the default node, which the root's edges reach first
        got = kernels.compile_sorted(array("i", [2, 0, 2, 1]), 2, 2, (3, 2), array("i", [1, 1]), 3)
        want = (
            (0, 3, 4, 5, 5, 5),  # root; default; literal; two terminals
            (0, 1, 2, -1, -1),
            (1, 1, 2, 3, 4),
            (-1, -1, -1, 1, 0),  # the default's label, 3, is reached first
        )
        assert flat(got) == (want, (1, 3))
        check_numbering(got[0])
