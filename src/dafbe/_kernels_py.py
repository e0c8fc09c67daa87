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
  intersection (mode 0), union (1) or difference (2) of ``a`` and ``b``;
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
  last levels.
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
twice.  On the last level no subset forms, so each sample the solver
takes has two equal counts.  ``compile_sorted`` and ``join`` return
``(shared, labels)`` alike.

This edition does not check its inputs.  Malformed arrays (state ids out
of range, broken offsets, symbols outside their level's domain, edges
that do not run to the next level, misplaced terminals) give a Python
exception or a meaningless result, never a crash, and the byte-identity
contract does not cover them.  The compiled edition checks them before
it reads them and raises ``AutomatonError``; ``Dafsa(...)`` checks them
at construction.

Every kernel builds its result minimal, with no merge pass afterwards.
Each but ``split`` is one depth-first walk, ``_walk``, whose leaves carry
a label or none, and which finishes each node once its children are
built.  Its finisher, ``_Shared``, interns one state per node, keyed by
(level, symbols, destinations), and builds the shared form: the
unique-table apply of Bryant (IEEE TC 35(8), 1986).  ``compile_sorted``
walks the trie of its rows, runs of rows that share a prefix, bottom-up
through the unique table as multi-terminal decision diagrams are built.
``product`` walks pairs of states and ``determinize``, ``minimize`` and
``remove_level`` subsets of states, all with one label.  ``join`` walks
subsets of entries side by side.  ``split`` makes one backward pass over
the shared form's states instead, interning one state per label each
state reaches in the unique table of a ``_Shared``.  ``project_entries``
walks the states of one shared automaton to remove its last level, and
subsets of them to remove any other, and ``combine_entries`` pairs of
states, one per operand; to fold, a pair on the last level is a leaf
that reads its children's labels.  This is the multi-terminal apply of
algebraic decision diagrams (Bahar et al., ICCAD 1993) on shared
diagrams, across different scopes as in AOMDDs (Mateescu, Dechter &
Marinescu, JAIR 33, 2008); folding the last level in the same walk is
the relational product of symbolic model checking (Burch et al., LICS
1990) in min-sum form, for a quantified variable that comes last, so no
set of pairs ever forms.
"""

from array import array
from bisect import bisect_right

WILDCARD = -1
DEAD = -1  # an empty language: a missing state, or a child with no strings
NO_EDGES = {}  # the literal edges of a state that has none; never mutated


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


def _collapse(lv, k, syms, dsts):
    """The unique-table key of a state: a complete literal fan onto one
    child becomes a wildcard."""
    if len(syms) == k and min(dsts) == max(dsts):
        return lv, (WILDCARD,), (dsts[0],)
    return lv, tuple(syms), tuple(dsts)


class _Shared:
    """The shared finisher: one result state per node, DEAD if it has no string.

    A node past the last level becomes the terminal of its label, one per
    label.  Any other node keeps its kids whose child is not DEAD, a
    complete literal fan onto one child becomes a wildcard, and the state
    is looked up by (level, symbols, destinations), so the result is the
    minimal shared form as built.
    """

    def __init__(self):
        self.esym = []
        self.edst = []
        self.table = {}
        self.terminals = {}  # label -> state

    def leaf(self, label):
        if label is None:
            return DEAD
        sid = self.terminals.get(label)
        if sid is None:
            sid = self.terminals[label] = len(self.esym)
            self.esym.append(())
            self.edst.append(())
        return sid

    def finish(self, lv, k, kids, built):
        syms = []
        dsts = []
        for v, child in kids:
            d = built[child]
            if d != DEAD:
                syms.append(v)
                dsts.append(d)
        if not syms:
            return DEAD
        sig = _collapse(lv, k, syms, dsts)
        sid = self.table.get(sig)
        if sid is None:
            sid = self.table[sig] = len(self.esym)
            self.esym.append(sig[1])
            self.edst.append(sig[2])
        return sid

    def parts(self, root):
        """(shared parts rooted at ``root``, ascending labels of its terminals).

        The term of each terminal is its label's index in that list.
        """
        if root == DEAD:
            return (array("i", [0, 0]), array("i"), array("i"), array("i", [-1])), []
        old2new, csr = _renumber(self.esym, self.edst, root)
        found = sorted((label, old2new[s]) for label, s in self.terminals.items() if s in old2new)
        term = array("i", [-1]) * len(old2new)
        for rank, (_, s) in enumerate(found):
            term[s] = rank
        return (*csr, term), [label for label, _ in found]


def _walk(domains, root, kids_of, label_of, out):
    """The depth-first walk behind every kernel.

    A node is any hashable.  ``kids_of(node, lv)`` lists its (symbol, child)
    pairs on level ``lv``, symbols ascending and a wildcard only alone;
    ``label_of(node)`` gives the label of a node past the last level, or
    None.  Nodes are expanded on an explicit stack, so automaton length is
    not bounded by the recursion limit, and the finisher ``out`` builds
    each node once its children are built (``out.leaf`` past the last
    level, ``out.finish`` above it).  Returns {node: what ``out`` built}
    for every node visited, including those with an empty language.
    """
    L = len(domains)
    built = {}
    # a frame is (node, level, None) until its children are pushed above
    # it, then (node, level, kids) until it is built
    stack = [(root, 0, None)]
    while stack:
        node, lv, kids = stack.pop()
        if kids is not None:
            built[node] = out.finish(lv, domains[lv], kids, built)
            continue
        if node in built:
            continue
        if lv == L:
            built[node] = out.leaf(label_of(node))
            continue
        kids = kids_of(node, lv)
        stack.append((node, lv, kids))
        nl = lv + 1
        for _, child in kids:
            if child not in built:
                stack.append((child, nl, None))
    return built


def _decoder(off, sym, dst):
    """decode(s): (wildcard destination or DEAD, {literal: destination}) of
    state ``s``, memoized; DEAD decodes to no edges."""
    memo = {DEAD: (DEAD, NO_EDGES)}

    def decode(s):
        got = memo.get(s)
        if got is None:
            lo, hi = off[s], off[s + 1]
            if hi > lo and sym[lo] == WILDCARD:
                got = dst[lo], NO_EDGES
            else:
                got = DEAD, dict(zip(sym[lo:hi], dst[lo:hi]))
            memo[s] = got
        return got

    return decode


def _merge(k, a, b, live):
    """Kids of a pair of nodes, each decoded as (wildcard child, {symbol: child}).

    A symbol one side does not name follows that side's wildcard; a child
    pair is kept if ``live`` says so.  ``k`` is the level's domain size.
    """
    awild, amap = a
    bwild, bmap = b
    kids = []
    if amap or bmap:
        explicit = sorted(amap.keys() | bmap.keys()) if amap and bmap else list(amap or bmap)
        for v in explicit:
            child = (amap.get(v, awild), bmap.get(v, bwild))
            if live(*child):
                kids.append((v, child))
        if len(explicit) < k and live(awild, bwild):
            # symbols neither side names follow both wildcards
            child = (awild, bwild)
            seen = set(explicit)
            kids.extend((v, child) for v in range(k) if v not in seen)
            kids.sort()
    elif live(awild, bwild):
        kids.append((WILDCARD, (awild, bwild)))
    return kids


def product(mode, a, b, domains):
    """Lockstep pair construction: 0 = intersect, 1 = union, 2 = difference.

    The walk over pairs of states, with one label.  A missing state on one
    side is tracked as the dead id -1, so union and difference can keep
    walking the side that is still alive.
    """
    acca_set = set(a[3])
    accb_set = set(b[3])
    if mode == 0:
        def live(da, db):
            return da != DEAD and db != DEAD

        def accepts(da, db):
            return da in acca_set and db in accb_set
    elif mode == 1:
        def live(da, db):
            return da != DEAD or db != DEAD

        def accepts(da, db):
            return da in acca_set or db in accb_set
    else:
        def live(da, db):
            return da != DEAD

        def accepts(da, db):
            return da in acca_set and db not in accb_set

    dec_a = _decoder(*a[:3])
    dec_b = _decoder(*b[:3])

    def kids_of(pair, lv):
        return _merge(domains[lv], dec_a(pair[0]), dec_b(pair[1]), live)

    def label_of(pair):
        return 0 if accepts(*pair) else None

    out = _Shared()
    built = _walk(domains, (0, 0), kids_of, label_of, out)
    return out.parts(built[(0, 0)])


def _kids(expl, wild, k):
    """(symbol, child) kids of a node on a level of domain size ``k``.

    ``expl`` maps literals to children, symbols ascending; the symbols it
    does not name follow the wildcard child ``wild`` (falsy if none), as
    one wildcard edge when ``expl`` is empty.
    """
    kids = list(expl.items())
    if wild and len(expl) < k:
        if expl:
            kids.extend((v, wild) for v in range(k) if v not in expl)
            kids.sort()
        else:
            kids.append((WILDCARD, wild))
    return kids


class _Subsets:
    """Subsets of the states of one automaton, stepped level by level.

    A subset is a sorted tuple of states, all on one level.  ``owner`` maps
    each accepting state to its label, and a subset past the last level
    takes the lowest label among its members.  With ``lvl`` >= 0 that
    level is contracted on the fly: a state there takes the merged edges
    of its successors (memoized), and if ``lvl`` is the last level of
    ``domains`` it accepts through an accepting successor.
    """

    def __init__(self, off, sym, dst, owner, domains, lvl=-1):
        self.off = off
        self.sym = sym
        self.dst = dst
        self.owner = owner
        self.domains = domains
        self.lvl = lvl
        self.merged = {}  # level-lvl state -> its contracted edges

    def edges(self, s, lv):
        off, sym, dst = self.off, self.sym, self.dst
        if lv != self.lvl:
            lo, hi = off[s], off[s + 1]
            return zip(sym[lo:hi], dst[lo:hi])
        e = self.merged.get(s)
        if e is None:
            e = self.merged[s] = {edge for t in dst[off[s] : off[s + 1]] for edge in self.edges(t, -1)}
        return e

    def kids(self, sub, lv):
        """Kids of ``sub`` on level ``lv``: a literal's child takes in the
        wildcard's members; children are sorted tuples."""
        wild = set()
        expl = {}
        for s in sub:
            for v, d in self.edges(s, lv):
                if v == WILDCARD:
                    wild.add(d)
                elif v in expl:
                    expl[v].add(d)
                else:
                    expl[v] = {d}
        expl = {v: tuple(sorted(expl[v] | wild)) for v in sorted(expl)}
        return _kids(expl, tuple(sorted(wild)), self.domains[lv])

    def label(self, sub):
        """The lowest label among the members that accept, or None."""
        owner = self.owner
        if self.lvl == len(self.domains):  # contracted last level
            off, dst = self.off, self.dst
            sub = [t for s in sub for t in dst[off[s] : off[s + 1]]]
        return min((owner[s] for s in sub if s in owner), default=None)


def _subset_walk(off, sym, dst, roots, owner, domains, lvl, out):
    """Walk the subsets reachable from ``roots`` (see ``_Subsets``).

    ``domains`` are the result's, so level ``lvl`` is already removed from
    them.  Returns what ``out`` built for the root, the number of distinct
    members and the number of distinct subsets visited.
    """
    subsets = _Subsets(off, sym, dst, owner, domains, lvl)
    root = tuple(roots)
    built = _walk(domains, root, subsets.kids, subsets.label, out)
    return built[root], len(set().union(*built)), len(built)


def determinize(a, start, domains):
    """Subset construction for a leveled NFA.

    Input states may carry duplicate symbols and wildcards next to
    literals.  Returns (shared, labels, raw_states) where raw_states
    counts the distinct subsets visited, the honest size of the
    determinized machine.
    """
    out = _Shared()
    root, _, raw_states = _subset_walk(*a[:3], (start,), dict.fromkeys(a[3], 0), domains, -1, out)
    return (*out.parts(root), raw_states)


def minimize(a, start, domains):
    return determinize(a, start, domains)[:2]


def remove_level(a, domains, lvl):
    """Project out level ``lvl``: contract its edges, then determinize.

    Contraction gives each level-``lvl`` state the merged edges of its
    successors, which in general is nondeterministic.  The walk reads them
    on the fly, so no NFA is built.  Returns (shared, labels, (nfa_states,
    raw_states)): the canonical result, the number of states of the
    contracted automaton (those reachable, minus level ``lvl + 1``) and
    the number of distinct subsets visited.
    """
    out = _Shared()
    root, nfa_states, raw_states = _subset_walk(
        *a[:3], (0,), dict.fromkeys(a[3], 0), domains[:lvl] + domains[lvl + 1 :], lvl, out
    )
    return (*out.parts(root), (nfa_states, raw_states))


def compile_sorted(digits, n_strings, length, domains, labels, default):
    """The shared form of labelled rows, ``default`` on every other string.

    ``digits`` is a flat int buffer, row-major ``n_strings x length``, rows
    strictly increasing lexicographically; row ``i`` is labelled
    ``labels[i]`` and a string no row names ``default``.  A label of -1
    leaves its strings out.  The walk over the trie of the rows: a node
    is a run ``(depth, first row, end row)`` of the rows that share their
    first ``depth`` digits, so a run on the last level is one row.  The
    symbols no row of a run names lead to the default node of the next
    depth, the empty run ``(depth, 0, 0)``, which ends in ``default``; with
    ``default`` -1 they lead nowhere.  A run whose rows are all labelled
    -1 builds DEAD, so its symbol gets no edge and no default.  Returns
    (shared, labels) as ``join``.
    """
    columns = [digits[d::length] for d in range(length)]

    def kids_of(run, lv):
        _, lo, hi = run
        col = columns[lv]
        nl = lv + 1
        expl = {}
        while lo < hi:
            end = bisect_right(col, col[lo], lo, hi)
            expl[col[lo]] = (nl, lo, end)
            lo = end
        return _kids(expl, default >= 0 and (nl, 0, 0), domains[lv])

    def label_of(run):
        _, lo, hi = run
        label = labels[lo] if lo < hi else default
        return None if label < 0 else label

    root = (0, 0, n_strings)
    out = _Shared()
    built = _walk(domains, root, kids_of, label_of, out)
    return out.parts(built[root])


def join(entries, domains):
    """The shared form of per-label automata, entry ``i`` labelled ``i``.

    The subset walk over all entries side by side, entry ``i``'s state
    ``s`` renamed ``base_i + s``; a leaf takes the lowest label among its
    accepting members.  Returns (shared, labels).
    """
    off = array("i", [0])
    sym = array("i")
    dst = array("i")
    roots = []
    owner = {}
    for i, (t_off, t_sym, t_dst, acc) in enumerate(entries):
        base = len(off) - 1
        roots.append(base)
        off.extend(map(len(sym).__add__, t_off[1:]))
        sym.extend(t_sym)
        dst.extend(map(base.__add__, t_dst))
        owner.update(dict.fromkeys(map(base.__add__, acc), i))
    out = _Shared()
    root, _, _ = _subset_walk(off, sym, dst, roots, owner, domains, -1, out)
    return out.parts(root)


def split(shared, domains):
    """[(label, parts), ...]: the automaton of each label, labels ascending.

    One backward pass over the states the root reaches, deepest level
    first.  Each state gets one result state per label it reaches: the
    edges to its children's states for that label, interned in the unique
    table of a ``_Shared``, so equal right languages share one state,
    whatever their label.  The terminals share one sink, which accepts in
    every label's automaton.
    """
    off, sym, dst, term = shared
    layers = [[0]]  # the states the root reaches, level by level
    for _ in domains:
        layers.append(list(dict.fromkeys(d for s in layers[-1] for d in dst[off[s] : off[s + 1]])))
    out = _Shared()
    sink = out.leaf(0)
    table, esym, edst = out.table, out.esym, out.edst
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
                sig = _collapse(lv, domains[lv], syms, dsts)
                sid = table.get(sig)
                if sid is None:
                    sid = table[sig] = len(esym)
                    esym.append(sig[1])
                    edst.append(sig[2])
                states[label] = sid
    result = []
    for label, root in sorted(built[0].items()):
        old2new, csr = _renumber(esym, edst, root)
        result.append((label, (*csr, array("i", [old2new[sink]]))))
    return result


def project_entries(shared, domains, lvl):
    """Remove level ``lvl``; each string takes the lowest label it reaches.

    The solver names variables by elimination position, so it removes
    only the last level.  That needs no subsets: the input is
    deterministic, so the walk steps single states, and a state on the
    last level that is left takes the lowest label among its successors.
    Any other level is removed by the subset walk over the shared form
    with level ``lvl`` contracted, as in ``remove_level``.  Returns
    (shared, labels, (states, subsets)); on the last level every subset
    is one state, so both count the states walked.
    """
    off, sym, dst, term = shared
    out = _Shared()
    if lvl == len(domains) - 1:
        def kids_of(s, lv):
            lo, hi = off[s], off[s + 1]
            return list(zip(sym[lo:hi], dst[lo:hi]))

        def label_of(s):
            return min(map(term.__getitem__, dst[off[s] : off[s + 1]]), default=None)

        built = _walk(domains[:lvl], 0, kids_of, label_of, out)
        return (*out.parts(built[0]), (len(built), len(built)))
    owner = {s: t for s, t in enumerate(term) if t >= 0}
    root, states, subsets = _subset_walk(
        off, sym, dst, (0,), owner, domains[:lvl] + domains[lvl + 1 :], lvl, out
    )
    return (*out.parts(root), (states, subsets))


def combine_entries(a, b, domains, in_a, in_b, labels, fold=False):
    """Walk A and B in step over the union levels, labelled by label pair.

    A node is a pair (A state, B state); on a level outside an operand's
    scope its state stays where it is.  With ``fold`` the last union level
    is removed in the same walk: a pair on it is a leaf, and takes the
    lowest label among its children, which is min-projection of the
    combined function without building it.

    Returns (shared, labels, (pairs, pairs)): the distinct pairs walked,
    twice.
    """
    term_a = a[3]
    term_b = b[3]
    nb = max(term_b, default=-1) + 1
    dec_a = _decoder(*a[:3])
    dec_b = _decoder(*b[:3])

    def live(sa, sb):
        return sa != DEAD and sb != DEAD

    def pair_kids(pair, lv):
        sa, sb = pair
        return _merge(
            domains[lv],
            dec_a(sa) if in_a[lv] else (sa, NO_EDGES),
            dec_b(sb) if in_b[lv] else (sb, NO_EDGES),
            live,
        )

    def pair_label(pair):
        i = term_a[pair[0]]
        j = term_b[pair[1]]
        return None if i < 0 or j < 0 else labels[i * nb + j]

    walked = domains[:-1] if fold else domains

    def folded_label(pair):  # a pair on the last union level, len(walked)
        found = (pair_label(child) for _, child in pair_kids(pair, len(walked)))
        return min((label for label in found if label is not None), default=None)

    out = _Shared()
    built = _walk(walked, (0, 0), pair_kids, folded_label if fold else pair_label, out)
    return (*out.parts(built[(0, 0)]), (len(built), len(built)))
