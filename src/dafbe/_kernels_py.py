"""Flat-array kernels for leveled-DAFSA algebra, pure-Python edition.

``_kernels_cc.cpp`` is the compiled twin, a hand-written C++17 extension
with the same names and positional signatures; ``dafbe._backend`` picks
whichever imports.  The two editions must agree byte for byte on
well-formed input, which is possible because every kernel returns the
*canonical form* of its result:

* minimal automaton (for the deterministic leveled case this is unique),
* every complete literal fan onto a single successor rewritten as one
  wildcard edge (symbol ``-1``), which matches any domain value,
* states numbered in breadth-first order from the start state, edges
  visited in symbol order (wildcard first).

Every argument and result automaton is given by its *parts*, four
``array('i')`` rooted at state 0:

    t_off   CSR offsets into t_sym / t_dst, one more than the states
    t_sym   per-state symbols sorted ascending, -1 = wildcard
    t_dst   destination ids parallel to t_sym
    acc     sorted accepting state ids, or in a shared form ``term``

An automaton argument (``a``, ``b``, an entry of ``join``) is ``(t_off,
t_sym, t_dst, acc)``, ``Dafsa.parts``.  It must be leveled: every path
from the start to an accepting state has the same length and level i
edges only read variable i's symbols.  Its start is state 0, except that
``determinize`` and ``minimize`` take a ``start``, and only
``determinize`` and ``remove_level`` accept nondeterministic
transitions.

A factor is one *shared* multi-terminal automaton, the parts ``(t_off,
t_sym, t_dst, term)`` rooted at state 0.  ``term[s]`` is the label of
terminal state ``s`` (an index into the factor's sorted values) and -1
for every other state.  It is canonical like a single automaton: minimal,
so equal right languages share one state whatever labels they reach,
with exactly one terminal per label and no state whose language is
empty; complete fans collapsed; states numbered breadth-first from the
root, so the terminals come last.  The empty function is a lone root
with ``term`` -1.  Every kernel but ``split`` returns one.

Four kernels build a set of strings, every string labelled 0.  Their
shared form has the same bytes as the canonical automaton, its one
terminal, if any, the last state and the accepting one
(``Dafsa._from_one_label``).  Each returns ``(shared, labels)``,
``labels`` being ``[0]``, or ``[]`` for the empty set, and
``determinize`` and ``remove_level`` add their counts:

* ``product(mode, a, b, domains)`` -> ``(shared, labels)``, the
  intersection (mode 0), union (1) or difference (2) of ``a`` and ``b``,
  as label choices over ``combine_entries`` and ``join``'s walk;
* ``determinize(a, start, domains)`` -> ``(shared, labels,
  raw_states)``;
* ``minimize(a, start, domains)`` -> ``(shared, labels)``;
* ``remove_level(a, domains, lvl)`` -> ``(shared, labels, (nfa_states,
  raw_states))``, with level ``lvl`` removed.

Five kernels build or read a factor's shared form:

* ``compile_sorted(digits, n_strings, length, domains, labels, default)``
  compiles a table: ``n_strings`` strictly increasing rows of a flat
  buffer, row ``i`` labelled ``labels[i]``, and ``default`` on every
  string no row names; a label of -1 leaves its strings out.  With one
  label and no default it gives a set of strings as one automaton,
  ``Dafsa.from_strings``: a one-label shared form has the same bytes as
  the canonical automaton, its terminal the accepting state.
* ``join(entries, domains)`` reads per-label automata (each an
  ``(t_off, t_sym, t_dst, acc)``, entry ``i`` labelled ``i``) into the
  shared form; a string in several entries takes the lowest label.
* ``split(shared, domains)`` gives back the ``(label, parts)`` of every
  label, labels ascending, each part the canonical automaton of that
  label's strings.
* ``project_entries(shared, domains, lvl)`` removes level ``lvl``; each
  string of the result takes the lowest label among its extensions,
  which is min-projection when labels rank values best first.  The
  solver names variables by elimination position, so it removes only
  last levels, and it removes them with ``combine_entries``' fold, a
  lone factor's against the constant ``automata.SCALAR``.
* ``combine_entries(a, b, domains, in_a, in_b, labels, fold=False)``
  walks the two operands in step over the union ``domains``.
  ``in_a[l]`` / ``in_b[l]`` tell whether union level ``l`` is one of the
  operand's own; a level outside an operand's scope leaves it where it
  is, as a wildcard would.  A string at A's label ``i`` and B's label
  ``j`` gets ``labels[i * nb + j]``, where ``nb`` is one more than B's
  largest label.  With ``fold`` the last union level is removed in the
  same walk, each string taking the lowest label among its extensions:
  with labels ranked best first that is min-projection of the combined
  function, which is never built.  It folds only the last level, the
  only one the solver removes.

The last two return ``(shared, labels, sample)``: the result, its term
renumbered into the ascending list ``labels`` of the input labels that
got a string, and one growth sample.  ``project_entries`` samples the
distinct states and the distinct subsets its walk visited, and
``combine_entries`` the distinct (A state, B state) pairs it walked,
twice; a pair that stays where it is across levels neither operand
reads is one pair.  Every sample the solver takes is a fold's, so it has
two equal counts.  ``compile_sorted`` and ``join`` return ``(shared,
labels)`` alike.

This edition does not check its inputs.  Malformed arrays (state ids out
of range, broken offsets, symbols outside their level's domain, edges
that do not run to the next level, misplaced terminals) give a Python
exception or a meaningless result, never a crash, and the byte-identity
contract does not cover them.  The compiled edition checks them before
it reads them and raises ``AutomatonError``; ``Dafsa(...)`` checks them
at construction.

Every kernel builds its result minimal, with no merge pass afterwards.
Each but ``split`` is one walk, ``_walk``, level by level: it expands
all nodes of a level at once, down to the leaves, which carry a label
or none (a negative label is none), and its finisher, ``_Shared``, then
builds one level per pass, bottom-up, interning one state per node in
that level's unique table, keyed by (symbols, destinations).  That
builds the shared form: the unique-table apply of Bryant (IEEE TC 35(8),
1986), one level per step as in breadth-first BDD packages (Ochi,
Yasuoka & Yajima, ICCAD 1993), since a Python call costs more than a
node's own work.  Each kernel expands a level in one loop of its own,
over its operands' edges decoded once per call, and lists the level
below in the order its nodes first name their children, so each level's
states, numbered in the order its nodes first reach them, come out
breadth-first: the result is never renumbered.  Both editions walk
level by level, so their results are byte-identical, and in both only
``split`` renumbers, its per-label automata.  In both, a walk that
finds every string at one label returns that constant's wildcard chain
and builds no level, as Bryant's apply stops at a terminal case.
``compile_sorted`` walks the trie of its rows, runs of rows that share a
prefix, bottom-up through the unique table as multi-terminal decision
diagrams are built.  ``determinize``, ``minimize`` and ``remove_level``
walk subsets of states, with one label, and ``join`` subsets of entries
side by side.  ``product`` has no walk of its own: its modes are label
choices over the walks of other kernels, as an apply takes its operator
as a parameter.  Intersection is ``combine_entries`` over the operands'
one-label forms, every level in both, with labels ``[0]``; union and
difference are ``join``'s side-by-side subset walk with B's accepting
states labelled 0 or -1, the union of the side-by-side NFA determinized
(Rabin & Scott, 1959), where -1, the lowest label, leaves a string that
B accepts out of the difference.
``split`` makes one backward pass over the shared form's states instead,
interning one state per label each state reaches in one unique table,
keyed by (symbols, destinations), which implies the level, since a
state's destinations sit on the next one, and renumbers each label's
automaton breadth-first.  ``project_entries`` walks subsets of the
states of one shared automaton with its level contracted, the walk of
``remove_level`` with more labels, and ``combine_entries`` pairs of
states, one per operand; to fold, a pair on the last level is a leaf
that reads its children's labels, and a lone factor is folded against
``SCALAR``, its one state paired with each of the factor's.  This is the
multi-terminal apply of algebraic decision diagrams (Bahar et al., ICCAD
1993) on shared diagrams, across different scopes as in AOMDDs
(Mateescu, Dechter & Marinescu, JAIR 33, 2008); folding the last level
in the same walk is the relational product of symbolic model checking
(Burch et al., LICS 1990) in min-sum form, for a quantified variable
that comes last, so no set of pairs ever forms.
"""

from array import array
from bisect import bisect_right
from collections import defaultdict
from itertools import accumulate, islice

WILDCARD = -1
DEAD = -1  # an empty language: a child with no strings
ONLY_WILDCARD = (WILDCARD,)  # the symbols of a state with one wildcard edge


def _renumber(esym, edst, root):
    """Breadth-first order and canonical CSR from ``root``.

    Per-state edges must be symbol-sorted.  Returns ({old id: new id},
    (t_off, t_sym, t_dst)).
    """
    old2new = {root: 0}
    order = [root]
    for s in order:  # grows while it is walked: a breadth-first queue
        for d in edst[s]:
            if d not in old2new:
                old2new[d] = len(order)
                order.append(d)
    off = [0]
    sym = []
    dst = []
    for s in order:
        sym += esym[s]
        dst += map(old2new.__getitem__, edst[s])
        off.append(len(sym))
    return old2new, (array("i", off), array("i", sym), array("i", dst))


def _collapse(k, syms, dsts):
    """The unique-table key of a state: a complete literal fan onto one
    child becomes a wildcard."""
    if len(syms) == k and min(dsts) == max(dsts):
        return ONLY_WILDCARD, (dsts[0],)
    return tuple(syms), tuple(dsts)


class _Shared:
    """The shared finisher: one result state per node, DEAD if it has no string.

    A node past the last level becomes the terminal of its label, one per
    label; a negative label, or None, is no string.  Any other node keeps
    its kids whose child is not DEAD, and is DEAD if none is left; a
    complete literal fan onto one child becomes a wildcard, and the state
    is looked up by (symbols, destinations) in its level's unique table,
    so the result is the minimal shared form as built.  Each level's
    states are numbered in the order the level's nodes first reach them,
    destinations pointing into the level below, which is breadth-first
    order when every level lists its nodes in the order their parents
    first name them; ``parts`` then only shifts each level's
    destinations by the number of states above the level they point
    into.
    """

    def __init__(self):
        self.levels = []  # per level, bottom-up: {(symbols, destinations): index}
        self.terminals = {}  # label -> index on the terminal level

    def leaves(self, labels):
        """The terminal of each label, DEAD for no string."""
        terminals = self.terminals
        at = terminals.setdefault
        return [DEAD if label is None or label < 0 else at(label, len(terminals)) for label in labels]

    def finish(self, k, syms, kids, below):
        """The states of one level's nodes from their symbols and their
        children, flat, as indices into ``below``, the next level's states."""
        table = {}
        at = table.setdefault
        states = []
        dsts = tuple(map(below.__getitem__, kids))
        dead = DEAD in dsts
        hi = 0
        for symbols in syms:
            lo = hi
            hi += len(symbols)
            d = dsts[lo:hi]
            if dead and DEAD in d:
                symbols = [v for v, c in zip(symbols, d) if c != DEAD]
                d = tuple(c for c in d if c != DEAD)
            if not d:  # no kids, or only DEAD ones
                states.append(DEAD)
            elif len(d) == k and d.count(d[0]) == k:  # _collapse, inlined for speed
                states.append(at((ONLY_WILDCARD, d[:1]), len(table)))
            else:
                states.append(at((tuple(symbols), d), len(table)))
        self.levels.append(table)
        return states

    def parts(self, root):
        """(shared parts rooted at ``root``, ascending labels of its terminals).

        The term of each terminal is its label's index in that list.
        """
        if root == DEAD:
            return (array("i", [0, 0]), array("i"), array("i"), array("i", [-1])), []
        sym = []
        dst = []
        degrees = []
        shift = 0  # the id of the first state below the level
        for table in reversed(self.levels):
            shift += len(table)
            for symbols, _ in table:
                sym += symbols
                degrees.append(len(symbols))
            dst += [d + shift for _, dsts in table for d in dsts]
        labels = sorted(self.terminals)
        rank = {label: r for r, label in enumerate(labels)}
        degrees += [0] * len(labels)
        term = array("i", [-1]) * shift
        term.extend(map(rank.__getitem__, self.terminals))
        return (array("i", accumulate(degrees, initial=0)), array("i", sym), array("i", dst), term), labels


def _constant(n):
    """The shared parts of a constant over ``n`` levels: the wildcard chain."""
    term = array("i", [-1]) * n
    term.append(0)
    return array("i", [*range(n + 1), n]), array("i", [WILDCARD]) * n, array("i", range(1, n + 1)), term


def _walk(domains, root, expand, labels_of):
    """The level-by-level walk behind every kernel but ``split``.

    A node is any hashable.  ``expand(lv, nodes)`` takes the list of level
    ``lv``'s nodes and returns ``(symbols, kids, below)``: per node its
    symbols, ascending and a wildcard only alone; one flat list of every
    node's children in turn, one per symbol, as indices into ``below``;
    and ``below``, the next level's nodes, each listed once, in the order
    the level's nodes first name them, and none that no node names.
    ``labels_of(nodes)`` gives the label of each node past the last level,
    None or a negative label for no string.  The walk expands one level at
    a time from ``root``; then a fresh ``_Shared`` builds one level per
    pass, bottom-up (``leaves`` past the last level, ``finish`` above it).
    Returns (shared, labels, the node list of every level), ``shared`` and
    ``labels`` as ``_Shared.parts`` gives them for ``root``.

    When it lists a leaf, all leaves have one label and every listed node
    a complete fan (its level's k symbols, or the lone wildcard), every
    string has that label: the walk returns ``_constant`` and builds
    nothing.  The labels are tested first, in one C-level count.
    """
    levels = [[root]]
    rows = []
    for lv in range(len(domains)):
        syms, kids, below = expand(lv, levels[-1])
        rows.append((syms, kids))
        levels.append(below)
    ends = labels_of(levels[-1])
    label = ends[0] if ends else None
    if (
        label is not None
        and label >= 0
        and ends.count(label) == len(ends)
        and all(0 < k == len(s) or WILDCARD in s for (syms, _), k in zip(rows, domains) for s in syms)
    ):
        return _constant(len(domains)), [label], levels
    out = _Shared()
    built = out.leaves(ends)
    for lv in reversed(range(len(domains))):
        built = out.finish(domains[lv], *rows.pop(), built)  # a level's rows go once built
    return (*out.parts(built[0]), levels)


def _edges(parts):
    """[(symbols, destinations)] of every state of ``parts``, as tuples."""
    off, sym, dst = parts[0], parts[1].tolist(), parts[2].tolist()
    return [(tuple(sym[lo:hi]), tuple(dst[lo:hi])) for lo, hi in zip(off, off[1:])]


def product(mode, a, b, domains):
    """Intersection (mode 0), union (1) or difference (2) as label choices.

    Intersection labels the pair (0, 0) in ``combine_entries``.  Union and
    difference label B's accepting states 0 or -1 in the side-by-side
    subset walk; -1 is the lowest label in a subset, and is no string.
    """
    if mode == 0:
        both = [True] * len(domains)
        return combine_entries(_one_label(a), _one_label(b), domains, both, both, [0])[:2]
    return _side_by_side((a, b), (0, 0) if mode == 1 else (0, -1), domains)


def _one_label(parts):
    """The shared form of an automaton's parts, its accepting states labelled 0."""
    term = array("i", [-1]) * (len(parts[0]) - 1)
    for s in parts[3]:
        term[s] = 0
    return (*parts[:3], term)


def _subset_walk(off, sym, dst, roots, owner, domains, lvl):
    """Walk the subsets of states reachable from ``roots``, level by level.

    A subset is a sorted tuple of states, all on one level.  Its kids
    union its members' edges: a literal's child takes in the wildcard's
    members, and the symbols no literal names follow the wildcard, as one
    wildcard edge when no literal is named.  ``owner`` maps each accepting
    state to its label, and a subset past the last level takes the lowest
    label among its members.  With ``lvl`` >= 0 that level is contracted
    on the fly: a state there takes the merged edges of its successors,
    and if ``lvl`` is the last level of ``domains`` it accepts through an
    accepting successor.  ``domains`` are the result's, so level ``lvl``
    is already removed from them.

    Returns (shared, labels) as ``_walk``, the number of distinct members
    and the number of distinct subsets visited.
    """
    pairs = list(zip(sym.tolist(), dst.tolist()))
    edges = [pairs[lo:hi] for lo, hi in zip(off, off[1:])]  # [(symbol, child)] per state

    def expand(lv, subsets):
        k = domains[lv]
        step = edges
        if lv == lvl:  # the contracted level: each state's successors' edges, merged once
            step = {s: {e for _, t in edges[s] for e in edges[t]} for s in set().union(*subsets)}
        syms = []
        all_children = []  # every subset's children in turn, looked up in one pass
        for sub in subsets:
            by_symbol = defaultdict(set)  # symbol -> the children it reaches
            for s in sub:
                for v, d in step[s]:
                    by_symbol[v].add(d)
            wild = by_symbol.pop(WILDCARD, set())
            symbols = sorted(by_symbol)
            children = [tuple(sorted(by_symbol[v] | wild)) for v in symbols]
            if wild and len(symbols) < k:  # the wildcard takes the rest
                named = dict(zip(symbols, children))
                wild = tuple(sorted(wild))
                symbols = range(k) if symbols else ONLY_WILDCARD
                children = [named.get(v, wild) for v in symbols]
            syms.append(symbols)
            all_children += children
        index = {}
        at = index.setdefault
        return syms, [at(child, len(index)) for child in all_children], list(index)

    def labels_of(subsets):
        if lvl == len(domains):  # contracted last level: a state accepts through a successor
            subsets = [[t for s in sub for _, t in edges[s]] for sub in subsets]
        return [min((owner[s] for s in sub if s in owner), default=None) for sub in subsets]

    shared, labels, levels = _walk(domains, tuple(roots), expand, labels_of)
    return shared, labels, len({s for level in levels for sub in level for s in sub}), sum(map(len, levels))


def determinize(a, start, domains):
    """Subset construction for a leveled NFA.

    Input states may carry duplicate symbols and wildcards next to
    literals.  Returns (shared, labels, raw_states) where raw_states
    counts the distinct subsets visited, the honest size of the
    determinized machine.
    """
    shared, labels, _, raw_states = _subset_walk(*a[:3], (start,), dict.fromkeys(a[3], 0), domains, -1)
    return shared, labels, raw_states


def minimize(a, start, domains):
    return determinize(a, start, domains)[:2]


def remove_level(a, domains, lvl):
    """Project out level ``lvl``: contract its edges, then determinize.

    ``project_entries`` of the one-label form.  Contraction gives each
    level-``lvl`` state the merged edges of its successors, which in
    general is nondeterministic; the walk reads them on the fly, so no
    NFA is built.  Returns (shared, labels, (nfa_states, raw_states)): the
    canonical result, the number of states of the contracted automaton
    (those reachable, minus level ``lvl + 1``) and the number of distinct
    subsets visited.
    """
    return project_entries(_one_label(a), domains, lvl)


def compile_sorted(digits, n_strings, length, domains, labels, default):
    """The shared form of labelled rows, ``default`` on every other string.

    ``digits`` is a flat int buffer, row-major ``n_strings x length``, rows
    strictly increasing lexicographically; row ``i`` is labelled
    ``labels[i]`` and a string no row names ``default``.  A label of -1
    leaves its strings out.  The walk over the trie of the rows: a node
    is a run ``(first row, end row)`` of the rows that share their digits
    above its level, so a run on the last level is one row.  The runs of
    a level are disjoint, so the level's expansion lists each child once
    without looking it up.  The symbols no row of a run names lead to the
    default node of the next level, the empty run ``(0, 0)``, which ends
    in ``default``: one wildcard edge when the run names none, as the
    default node does.  The default node is listed where a run first
    takes it, in symbol order, and not at all if no run does.  With
    ``default`` -1 those symbols lead nowhere.  A run whose rows are all
    labelled -1 builds DEAD, so its symbol gets no edge and no default.  Returns (shared, labels) as ``join``.
    """
    columns = [digits[d::length] for d in range(length)]

    def expand(lv, runs):
        col = columns[lv]
        k = domains[lv]
        syms = []
        kids = []
        below = []
        fill = None  # the index of the default node in ``below``, once a run takes it
        for lo, hi in runs:
            symbols = []
            children = []
            while lo < hi:
                end = bisect_right(col, col[lo], lo, hi)
                symbols.append(col[lo])
                children.append((lo, end))
                lo = end
            if default < 0 or len(symbols) == k:
                kids += range(len(below), len(below) + len(children))
                below += children
            else:  # the default takes the rest
                named = dict(zip(symbols, children))
                symbols = range(k) if symbols else ONLY_WILDCARD
                for v in symbols:
                    child = named.get(v)
                    if child is None:
                        if fill is None:
                            fill = len(below)
                            below.append((0, 0))
                        kids.append(fill)
                    else:
                        kids.append(len(below))
                        below.append(child)
            syms.append(symbols)
        return syms, kids, below

    def labels_of(runs):
        return [labels[lo] if lo < hi else default for lo, hi in runs]

    return _walk(domains, (0, n_strings), expand, labels_of)[:2]


def join(entries, domains):
    """The shared form of per-label automata, entry ``i`` labelled ``i``.

    Returns (shared, labels).
    """
    return _side_by_side(entries, range(len(entries)), domains)


def _side_by_side(entries, owners, domains):
    """The subset walk over automata side by side, entry ``i``'s state ``s``
    renamed ``base_i + s`` and its accepting states labelled ``owners[i]``.

    A leaf takes the lowest label among its accepting members.  Returns
    (shared, labels).
    """
    off = array("i", [0])
    sym = array("i")
    dst = array("i")
    roots = []
    owner = {}
    for (t_off, t_sym, t_dst, acc), label in zip(entries, owners):
        base = len(off) - 1
        roots.append(base)
        off.extend(map(len(sym).__add__, t_off[1:]))
        sym.extend(t_sym)
        dst.extend(map(base.__add__, t_dst))
        owner.update(dict.fromkeys(map(base.__add__, acc), label))
    return _subset_walk(off, sym, dst, roots, owner, domains, -1)[:2]


def split(shared, domains):
    """[(label, parts), ...]: the automaton of each label, labels ascending.

    One backward pass over the states the root reaches, deepest level
    first.  Each state gets one result state per label it reaches: the
    edges to its children's states for that label, interned in one unique
    table, so equal right languages share one state, whatever their
    label.  The terminals share one sink, which accepts in every label's
    automaton.
    """
    off, sym, dst, term = shared
    layers = [[0]]  # the states the root reaches, level by level
    for _ in domains:
        layers.append(list(dict.fromkeys(d for s in layers[-1] for d in dst[off[s] : off[s + 1]])))
    sink = 0  # every terminal is this one state
    esym = [()]
    edst = [()]
    table = {}
    # state -> {label: result state}
    built = {s: {term[s]: sink} if term[s] >= 0 else {} for s in layers[-1]}
    for lv in reversed(range(len(domains))):
        for s in layers[lv]:
            per = {}  # label -> (symbols, destinations)
            for j in range(off[s], off[s + 1]):
                for label, d in built[dst[j]].items():
                    edges = per.get(label)
                    if edges is None:
                        per[label] = ([sym[j]], [d])
                    else:
                        edges[0].append(sym[j])
                        edges[1].append(d)
            states = built[s] = {}
            for label, (syms, dsts) in per.items():
                sig = _collapse(domains[lv], syms, dsts)
                sid = table.get(sig)
                if sid is None:
                    sid = table[sig] = len(esym)
                    esym.append(sig[0])
                    edst.append(sig[1])
                states[label] = sid
    result = []
    for label, root in sorted(built[0].items()):
        old2new, csr = _renumber(esym, edst, root)
        result.append((label, (*csr, array("i", [old2new[sink]]))))
    return result


def project_entries(shared, domains, lvl):
    """Remove level ``lvl``; each string takes the lowest label it reaches.

    The subset walk over the shared form with level ``lvl`` contracted on
    the fly, as in ``remove_level``; on the last level each state left
    takes the lowest label among its successors.  The solver removes last
    levels with ``combine_entries``' fold instead.  Returns (shared,
    labels, (states, subsets)): the distinct states and the distinct
    subsets the walk visited.
    """
    owner = {s: t for s, t in enumerate(shared[3]) if t >= 0}
    shared, labels, states, subsets = _subset_walk(
        *shared[:3], (0,), owner, domains[:lvl] + domains[lvl + 1 :], lvl
    )
    return shared, labels, (states, subsets)


def combine_entries(a, b, domains, in_a, in_b, labels, fold=False):
    """Walk A and B in step over the union levels, labelled by label pair.

    A node is a pair (A state, B state); on a level outside an operand's
    scope its state stays where it is.  Each level is expanded in one
    loop, which merges the edges of every pair inline.  With ``fold`` the
    last union level is removed in the same walk: a pair on it is a leaf,
    and takes the lowest label among its children, which is
    min-projection of the combined function without building it.

    Returns (shared, labels, (pairs, pairs)): the number of distinct pairs
    walked, twice.  A pair that stays where it is across a level neither
    operand reads is one pair, not one per level.
    """
    term_a = a[3]
    term_b = b[3]
    nb = max(term_b, default=-1) + 1
    edges_a = _edges(a)
    edges_b = _edges(b)
    walked = domains[:-1] if fold else domains

    def expand(lv, nodes):
        if not (in_a[lv] or in_b[lv]):  # every pair stays where it is
            return [ONLY_WILDCARD] * len(nodes), list(range(len(nodes))), nodes
        index = {}
        at = index.setdefault
        if in_a[lv] and in_b[lv]:
            syms = []
            pairs = []  # every node's children in turn, looked up in one pass
            for sa, sb in nodes:
                sym_a, dst_a = edges_a[sa]
                sym_b, dst_b = edges_b[sb]
                if sym_a == sym_b:
                    pairs += zip(dst_a, dst_b)
                elif sym_a == ONLY_WILDCARD:
                    sym_a = sym_b
                    pairs += zip(dst_a * len(dst_b), dst_b)
                elif sym_b == ONLY_WILDCARD:
                    pairs += zip(dst_a, dst_b * len(dst_a))
                else:  # two literal fans: the symbols both name
                    named = dict(zip(sym_b, dst_b))
                    pairs += [(da, named[v]) for v, da in zip(sym_a, dst_a) if v in named]
                    sym_a = [v for v in sym_a if v in named]
                syms.append(sym_a)
            return syms, [at(p, len(index)) for p in pairs], list(index)
        if in_a[lv]:  # each pair's B state stays where it is
            kids = [at((da, sb), len(index)) for sa, sb in nodes for da in edges_a[sa][1]]
            return [edges_a[sa][0] for sa, _ in nodes], kids, list(index)
        kids = [at((sa, db), len(index)) for sa, sb in nodes for db in edges_b[sb][1]]
        return [edges_b[sb][0] for _, sb in nodes], kids, list(index)

    def pair_labels(nodes):
        return [
            labels[i * nb + j] if i >= 0 and j >= 0 else None
            for i, j in ((term_a[sa], term_b[sb]) for sa, sb in nodes)
        ]

    def folded_labels(nodes):  # the pairs on the last union level, len(walked)
        syms, kids, below = expand(len(walked), nodes)
        got = map(pair_labels(below).__getitem__, kids)
        return [min((g for g in islice(got, len(s)) if g is not None), default=None) for s in syms]

    shared, kept, levels = _walk(walked, (0, 0), expand, folded_labels if fold else pair_labels)
    pairs = sum(len(nodes) for lv, nodes in enumerate(levels) if lv == len(walked) or in_a[lv] or in_b[lv])
    return shared, kept, (pairs, pairs)
