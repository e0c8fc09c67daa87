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
  automaton's states;
* a labelled ``compile_sorted`` leads each string to its row's label, or
  else to the default, and is byte-identical to the ``join`` of one
  canonical automaton per label;
* the last level removed, by ``combine_entries``' fold against the
  constant ``SCALAR`` as the solver removes it, and by
  ``project_entries``' subset walk, equals the canonical shared form of
  the function read off ``split`` by brute force, each shortened string
  taking the lowest label among its extensions, and samples the states
  above the last level twice;
* a walk whose every string gets one label, in every walking kernel,
  returns the bytes of ``Dafsa.universal``'s chain with its terminal
  given that label, and in the Python edition builds no level; a near
  miss (an incomplete fan, two labels, a leaf with no string, no leaf)
  builds the canonical form.
"""

import itertools
import random
import sys
from array import array

import pytest

from dafbe.automata import SCALAR, Dafsa

from conftest import rand_nfa_parts

DOMS = [(), (1,), (2,), (1, 2), (2, 2), (3, 2), (2, 3, 2), (4, 2, 3), (2, 2, 2, 2), (3, 1, 2, 2)]
WILDCARD = -1


# -- brute-force reference ---------------------------------------------------


def edge_lists(parts):
    t_off, t_sym, t_dst = parts[:3]
    return [list(zip(t_sym[t_off[s] : t_off[s + 1]], t_dst[t_off[s] : t_off[s + 1]]))
            for s in range(len(t_off) - 1)]


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


def canonical_shared(func, dom):
    """(parts, labels) of the canonical shared form of ``func``, {string: label}.

    One state per (level, right language), a right language being the
    set of (suffix, label) pairs; a complete fan onto one state is a
    wildcard, states are numbered breadth-first and a terminal's term is
    the rank of its label among ``labels``, the labels ascending.
    """
    labels = sorted(set(func.values()))
    if not func:
        return ((0, 0), (), (), (-1,)), labels
    rank = {label: n for n, label in enumerate(labels)}
    L = len(dom)
    root = frozenset(func.items())
    ids = {root: 0}
    order = [root]
    off, sym, dst, term = [0], [], [], []
    for rest in order:  # a breadth-first queue
        lv = L - len(next(iter(rest))[0])
        if lv < L:
            kids = [frozenset((w[1:], label) for w, label in rest if w[0] == v) for v in range(dom[lv])]
            out = [(v, kid) for v, kid in enumerate(kids) if kid]
            if len(out) == dom[lv] and len(set(kids)) == 1:
                out = [(WILDCARD, kids[0])]
            for v, kid in out:
                if kid not in ids:
                    ids[kid] = len(order)
                    order.append(kid)
                sym.append(v)
                dst.append(ids[kid])
            term.append(-1)
        else:
            ((_, label),) = rest
            term.append(rank[label])
        off.append(len(sym))
    return (tuple(off), tuple(sym), tuple(dst), tuple(term)), labels


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


def accepting_parts(shared, labels):
    """The automaton of a one-label kernel's result: its terminals accept.

    The shared form must hold label 0 alone, or no label when empty.
    """
    t_off, t_sym, t_dst, term = shared
    acc = [s for s, t in enumerate(term) if t >= 0]
    assert set(term) <= {-1, 0} and labels == ([0] if acc else [])
    return t_off, t_sym, t_dst, acc


def check_result(result, lang, dom):
    parts = tuple(tuple(p) for p in accepting_parts(*result[:2]))
    d = Dafsa(tuple(dom), *(array("i", p) for p in parts))
    d.check_invariants()
    assert set(d.enumerate_strings()) == lang
    assert d.state_count == (right_language_classes(lang, dom) or 1)
    assert parts == canonical_parts(lang, dom)


def rand_dfa_parts(rng, dom):
    """Random leveled DFA that is not minimal: split states, complete
    literal fans onto one successor, states with no way to acceptance.
    Returns its parts ``(t_off, t_sym, t_dst, acc)``, rooted at state 0."""
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
    return t_off, t_sym, t_dst, acc


# -- tests -------------------------------------------------------------------


class TestAgainstReference:
    def test_determinize(self, kernels):
        rng = random.Random(20261101)
        for trial in range(200):
            dom = rng.choice(DOMS)
            nfa, start = rand_nfa_parts(rng, dom)
            edges = edge_lists(nfa)
            result = kernels.determinize(nfa, start, dom)
            check_result(result, language(edges, nfa[3], start, dom), dom)
            assert result[2] == reachable_subsets(edges, start, dom)

    def test_minimize(self, kernels):
        rng = random.Random(20261102)
        for trial in range(200):
            dom = rng.choice(DOMS)
            dfa = rand_dfa_parts(rng, dom)
            result = kernels.minimize(dfa, 0, dom)
            check_result(result, language(edge_lists(dfa), dfa[3], 0, dom), dom)

    def test_remove_every_level(self, kernels):
        rng = random.Random(20261103)
        for trial in range(120):
            dom = rng.choice([d for d in DOMS if d])
            if rng.random() < 0.5:
                words = {tuple(rng.randrange(k) for k in dom) for _ in range(rng.randrange(0, 14))}
                src = Dafsa.from_strings(dom, sorted(words)).parts
            else:
                src = rand_dfa_parts(rng, dom)
            edges = edge_lists(src)
            lang = language(edges, src[3], 0, dom)
            for lvl in range(len(dom)):
                new_dom = dom[:lvl] + dom[lvl + 1 :]
                result = kernels.remove_level(src, dom, lvl)
                check_result(result, {w[:lvl] + w[lvl + 1 :] for w in lang}, new_dom)
                contracted, _ = contract(edges, src[3], 0, lvl)
                nfa_states, raw_states = result[2]
                assert nfa_states == len(contracted)
                assert raw_states == reachable_subsets(contracted, 0, new_dom)

    def test_deep_remove_level_runs_past_the_recursion_limit(self, kernels):
        L = 1500
        assert L > sys.getrecursionlimit()
        dom = (2,) * L
        rng = random.Random(20261104)
        words = sorted({tuple(rng.randrange(2) for _ in range(L)) for _ in range(6)})
        d = Dafsa.from_strings(dom, words)
        lvl = L // 2
        new_dom = dom[:lvl] + dom[lvl + 1 :]
        shared, labels, (nfa_states, raw_states) = kernels.remove_level(d.parts, dom, lvl)
        expected = Dafsa.from_strings(new_dom, {w[:lvl] + w[lvl + 1 :] for w in words})
        assert tuple(map(tuple, accepting_parts(shared, labels))) == tuple(map(tuple, expected.parts))
        contracted, _ = contract(edge_lists(d.parts), d.acc, d.start, lvl)
        assert nfa_states == len(contracted)
        assert raw_states == reachable_subsets(contracted, d.start, new_dom)


def reached_label(shared, labels, word):
    """The label ``word`` reaches in a shared form, None if it reaches no terminal."""
    t_off, t_sym, t_dst, term = shared
    s = 0
    for v in word:
        lo, hi = t_off[s], t_off[s + 1]
        for j in range(lo, hi):
            if t_sym[j] in (v, WILDCARD):
                s = t_dst[j]
                break
        else:
            return None
    return labels[term[s]] if term[s] >= 0 else None


class TestLabelledCompile:
    def test_against_per_label_compiles(self, kernels):
        rng = random.Random(20261105)
        for trial in range(300):
            dom = tuple(rng.randrange(1, 4) for _ in range(rng.randrange(0, 6)))
            words = list(itertools.product(*(range(k) for k in dom)))
            rows = sorted(rng.sample(words, rng.randrange(0, len(words) + 1)))
            row_labels = [rng.randrange(-1, 4) for _ in rows]
            default = rng.randrange(-1, 4)
            digits = array("i", [v for w in rows for v in w])
            shared, labels = kernels.compile_sorted(
                digits, len(rows), len(dom), dom, array("i", row_labels), default
            )

            want = dict(zip(rows, row_labels))
            by_label = {}
            for word in words:
                label = want.get(word, default)
                assert reached_label(shared, labels, word) == (None if label < 0 else label)
                if label >= 0:
                    by_label.setdefault(label, []).append(word)

            # the old path: one automaton per label, then one join
            present = sorted(by_label)
            entries = [Dafsa.from_strings(dom, by_label[label]).parts for label in present]
            for label, parts in zip(present, entries):
                assert tuple(map(tuple, parts)) == canonical_parts(set(by_label[label]), dom)
            joined, order = kernels.join(entries, dom)
            assert tuple(map(tuple, shared)) == tuple(map(tuple, joined)), trial
            assert list(labels) == [present[n] for n in order]


def last_level_reference(kernels, shared, dom):
    """(parts, labels, sample) of removing the last level.

    The function is read off ``split`` by brute force, each string cut
    short by its last symbol and taking the lowest label among its
    extensions.  The sample is the states above the last level, twice.
    """
    func = {}
    for label, (t_off, t_sym, t_dst, acc) in kernels.split(shared, dom):
        edges = edge_lists((t_off, t_sym, t_dst))
        for word in language(edges, acc, 0, dom):
            func[word[:-1]] = min(func.get(word[:-1], label), label)
    parts, labels = canonical_shared(func, dom[:-1])
    lev = levels(edge_lists(shared), 0)
    above = sum(lv < len(dom) for lv in lev.values())
    return parts, labels, (above, above)


class TestProjectLastLevel:
    def test_against_split_reference(self, kernels):
        # compiled tables: pruned rows (label -1), empty functions, one
        # level, wildcard levels from a covering default, domains 1-3
        rng = random.Random(20261106)
        shapes = [(1,), (2,), (3,), (1, 2), (2, 1), (3, 3), (2, 1, 3), (1, 1, 2), (3, 2, 2), (2, 3, 1, 2)]
        for trial in range(400):
            dom = rng.choice(shapes)
            words = list(itertools.product(*(range(k) for k in dom)))
            rows = sorted(rng.sample(words, rng.randrange(0, len(words) + 1)))
            row_labels = [rng.randrange(-1, 4) for _ in rows]
            default = rng.choice((-1, -1, rng.randrange(4)))
            digits = array("i", [v for w in rows for v in w])
            shared, present = kernels.compile_sorted(
                digits, len(rows), len(dom), dom, array("i", row_labels), default
            )
            want = last_level_reference(kernels, shared, dom)
            every, none = [True] * len(dom), [False] * len(dom)
            for got in (
                kernels.combine_entries(shared, SCALAR, dom, every, none, range(len(present)), True),
                kernels.project_entries(shared, dom, len(dom) - 1),
            ):
                parts, labels, sample = got
                assert (tuple(map(tuple, parts)), list(labels), tuple(sample)) == want, trial


# -- constant results ----------------------------------------------------------


def constant_chain(dom, label):
    """(parts, labels) of the constant ``label`` over ``dom``, built apart
    from the kernels: ``Dafsa.universal``'s parts, its accepting state the
    terminal of the one label."""
    t_off, t_sym, t_dst, acc = Dafsa.universal(dom).parts
    term = [-1] * (len(t_off) - 1)
    for s in acc:
        term[s] = 0
    return (tuple(t_off), tuple(t_sym), tuple(t_dst), tuple(term)), [label]


def table_args(dom, func, default=-1):
    """compile_sorted's arguments for ``func``, {string: label}, and ``default`` elsewhere."""
    rows = sorted(func)
    digits = array("i", [v for w in rows for v in w])
    return digits, len(rows), len(dom), dom, array("i", [func[w] for w in rows]), default


def words_of(dom):
    return list(itertools.product(*(range(k) for k in dom)))


@pytest.fixture
def built(kernels, monkeypatch):
    """run(kernel, *args) -> (its result, whether its walk built its
    levels): in the Python edition, whether a ``_Shared`` wrote its parts,
    which every build does and the constant's exit does not; in the
    compiled one, None."""
    import dafbe._kernels_py as KP

    made = []
    if kernels is KP:

        class Counted(KP._Shared):
            def parts(self, root):
                made.append(self)
                return super().parts(root)

        monkeypatch.setattr(KP, "_Shared", Counted)

    def run(kernel, *args):
        made.clear()
        out = getattr(kernels, kernel)(*args)
        return out, (bool(made) if kernels is KP else None)

    return run


def shared_of(result):
    parts, labels = result[:2]
    return tuple(map(tuple, parts)), list(labels)


class TestConstantResult:
    """A walk whose every string gets one label returns the wildcard chain
    without building a level; a near miss builds the canonical form."""

    DOMS = [(), (1,), (3,), (1, 1), (2, 3), (3, 1, 2), (2, 2, 2)]

    def expect_chain(self, run, dom, label, kernel, *args):
        out, was_built = run(kernel, *args)
        assert shared_of(out) == constant_chain(dom, label), (kernel, dom)
        assert not was_built, (kernel, dom)
        return out

    def expect_built(self, run, dom, func, kernel, *args):
        out, was_built = run(kernel, *args)
        assert shared_of(out) == canonical_shared(func, dom), (kernel, dom)
        assert was_built in (True, None), (kernel, dom)
        return out

    def test_compile_sorted(self, kernels, built):
        rng = random.Random(20261020)
        for dom in self.DOMS:
            words = words_of(dom)
            self.expect_chain(built, dom, 4, "compile_sorted", *table_args(dom, {}, 4))  # default only
            for n in range(len(words) + 1):  # rows that all carry the default's label
                rows = dict.fromkeys(rng.sample(words, n), 2)
                self.expect_chain(built, dom, 2, "compile_sorted", *table_args(dom, rows, 2))
            rows = dict.fromkeys(words, 1)  # every string a row, no default
            self.expect_chain(built, dom, 1, "compile_sorted", *table_args(dom, rows))

    def test_join(self, kernels, built):
        for dom in self.DOMS:
            universal = Dafsa.universal(dom).parts
            self.expect_chain(built, dom, 0, "join", [universal], dom)
            part = Dafsa.from_strings(dom, words_of(dom)[:1]).parts
            self.expect_chain(built, dom, 0, "join", [universal, part], dom)  # the lowest label wins

    def test_combine_entries(self, kernels, built):
        rng = random.Random(20261021)
        for dom in self.DOMS:
            if not dom:
                continue
            L = len(dom)
            every, none = [True] * L, [False] * L
            for _ in range(6):
                # unfolded: two total functions, every label pair to label 5
                fa = {w: rng.randrange(3) for w in words_of(dom)}
                fb = {w: rng.randrange(3) for w in words_of(dom)}
                a, la = kernels.compile_sorted(*table_args(dom, fa))
                b, lb = kernels.compile_sorted(*table_args(dom, fb))
                pairs = [5] * (len(la) * len(lb))
                self.expect_chain(built, dom, 5, "combine_entries", a, b, dom, every, every, pairs)
                fb0 = {w: rng.randrange(3) for w in words_of(dom[:1])}  # B reads level 0 alone
                b0, lb0 = kernels.compile_sorted(*table_args(dom[:1], fb0))
                in_b = [lv == 0 for lv in range(L)]
                pairs = [5] * (len(la) * len(lb0))
                self.expect_chain(built, dom, 5, "combine_entries", a, b0, dom, every, in_b, pairs)
                # folded: every string has an extension at label 0, the lowest
                fc = {w: 0 if w[-1] == 0 else rng.randrange(1, 3) for w in words_of(dom)}
                c, lc = kernels.compile_sorted(*table_args(dom, fc))
                self.expect_chain(
                    built, dom[:-1], 0, "combine_entries", c, SCALAR, dom, every, none, range(len(lc)), True
                )
                fused = [min(i, j) for i in range(len(lc)) for j in range(len(lc))]
                self.expect_chain(built, dom[:-1], 0, "combine_entries", c, c, dom, every, every, fused, True)

    def test_project_entries(self, kernels, built):
        rng = random.Random(20261022)
        for dom in self.DOMS:
            for lvl in range(len(dom)):
                func = {w: 0 if w[lvl] == 0 else rng.randrange(1, 4) for w in words_of(dom)}
                shared, _ = kernels.compile_sorted(*table_args(dom, func))
                short = dom[:lvl] + dom[lvl + 1 :]
                self.expect_chain(built, short, 0, "project_entries", shared, dom, lvl)

    def test_library_kernels(self, kernels, built):
        for dom in self.DOMS:
            universal = Dafsa.universal(dom).parts
            one = Dafsa.from_strings(dom, words_of(dom)[-1:]).parts
            self.expect_chain(built, dom, 0, "product", 0, universal, universal, dom)
            self.expect_chain(built, dom, 0, "product", 1, one, universal, dom)
            self.expect_chain(built, dom, 0, "determinize", universal, 0, dom)
            self.expect_chain(built, dom, 0, "minimize", universal, 0, dom)
            for lvl in range(len(dom)):
                self.expect_chain(built, dom[:lvl] + dom[lvl + 1 :], 0, "remove_level", universal, dom, lvl)

    def test_near_misses_build(self, kernels, built):
        # one label with one incomplete fan, k = 1 levels among them
        for dom in ((2, 3), (1, 2), (1, 1, 2), (3,)):
            func = dict.fromkeys(words_of(dom)[1:], 0)
            self.expect_built(built, dom, func, "compile_sorted", *table_args(dom, func))
        # complete fans, two labels
        for dom in ((2,), (1, 2), (2, 3)):
            func = {w: n % 2 for n, w in enumerate(words_of(dom))}
            self.expect_built(built, dom, func, "compile_sorted", *table_args(dom, func))
        # complete fans, one label, and a leaf that is no string (label -1)
        for dom in ((1, 1), (2,), (2, 3)):
            func = dict.fromkeys(words_of(dom), 0)
            func[words_of(dom)[-1]] = -1
            kept = {w: label for w, label in func.items() if label >= 0}
            self.expect_built(built, dom, kept, "compile_sorted", *table_args(dom, func))
        # range(k) fans from the default, with two labels
        dom = (3, 2)
        func = {w: 1 for w in words_of(dom)}
        func[(1, 0)] = 2
        self.expect_built(built, dom, func, "compile_sorted", *table_args(dom, {(1, 0): 2}, 1))
        # walks that list no leaf: an empty table, and disjoint operands
        for dom in ((), (2,), (2, 3)):
            self.expect_built(built, dom, {}, "compile_sorted", *table_args(dom, {}))
        dom = (2, 3)
        a = Dafsa.from_strings(dom, [(0, 0)]).parts
        b = Dafsa.from_strings(dom, [(1, 0)]).parts
        self.expect_built(built, dom, {}, "product", 0, a, b, dom)
        # zero levels: the constant is the lone terminal root
        self.expect_chain(built, (), 3, "compile_sorted", *table_args((), {}, 3))
