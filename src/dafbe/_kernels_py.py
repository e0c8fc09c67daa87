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

Flat automaton form, shared with the compiled edition:

    n       number of states, ids 0..n-1
    t_off   array('i') of length n+1, CSR offsets into t_sym / t_dst
    t_sym   array('i'), per-state symbols sorted ascending, -1 = wildcard
    t_dst   array('i'), destination ids parallel to t_sym
    acc     array('i'), sorted accepting state ids
    start   start state id

Kernels return ``(t_off, t_sym, t_dst, acc)`` with start state 0.  Inputs
must be leveled (every path from the start to an accepting state has the
same length and level i edges only read variable i's symbols); only
``determinize`` and ``remove_level`` accept nondeterministic transitions.

A factor is one *shared* multi-terminal automaton, the parts ``(t_off,
t_sym, t_dst, term)`` rooted at state 0.  ``term[s]`` is the label of
terminal state ``s`` (an index into the factor's sorted values) and -1
for every other state.  It is canonical like a single automaton: minimal,
so equal right languages share one state whatever labels they reach,
with exactly one terminal per label and no state whose language is
empty; complete fans collapsed; states numbered breadth-first from the
root, so the terminals come last.  The empty function is a lone root
with ``term`` -1.  Four kernels work on it:

* ``join(entries, domains)`` reads per-label automata (each an
  ``(t_off, t_sym, t_dst, acc)``, entry ``i`` labelled ``i``) into the
  shared form; a string in several entries takes the lowest label.
* ``split(shared, domains)`` gives back the ``(label, parts)`` of every
  label, labels ascending, each part the canonical automaton of that
  label's strings.
* ``project_entries(shared, domains, lvl)`` removes level ``lvl``; each
  string of the result takes the lowest label among its extensions,
  which is min-projection when labels rank values best first.
* ``combine_entries(a, b, domains, in_a, in_b, labels, lvl=-1)`` walks
  the two operands in step over the union ``domains``.  ``in_a[l]`` /
  ``in_b[l]`` tell whether union level ``l`` is one of the operand's own;
  a level outside an operand's scope leaves it where it is, as a
  wildcard would.  A string at A's label ``i`` and B's label ``j`` gets
  ``labels[i * nb + j]``, where ``nb`` is one more than B's largest
  label.  With ``lvl`` >= 0 union level ``lvl`` is removed in the same
  walk, each string taking the lowest label among its extensions: with
  labels ranked best first that is min-projection of the combined
  function, which is never built.

The last two return ``(shared, labels, sample)``: the result, its term
renumbered into the ascending list ``labels`` of the input labels that
got a string, and one growth sample.  ``project_entries`` samples the
distinct states and the distinct subsets its walk visited,
``combine_entries`` the distinct (A state, B state) pairs and the
distinct nodes.  ``join`` returns ``(shared, labels)`` alike.

This edition does not check its inputs.  Malformed arrays (state ids out
of range, broken offsets, symbols outside their level's domain, edges
that do not run to the next level, misplaced terminals) give a Python
exception or a meaningless result, never a crash, and the byte-identity
contract does not cover them.  The compiled edition checks them before
it reads them and raises ``AutomatonError``; ``Dafsa(...)`` checks them
at construction.

Every kernel builds its result minimal, with no merge pass afterwards.
``compile_sorted`` registers each suffix state once it is complete.  Every
other kernel is one depth-first walk, ``_walk``, whose leaves carry a
label or none, and which finishes each node once its children are built.
It takes one of two finishers.  ``_Shared`` interns one state per node,
keyed by (level, symbols, destinations), and builds the shared form.
``_Unique`` interns one state per label reachable below the node, in one
table for all labels, so it splits by label in the same pass; each
label's automaton is read off canonically at the end.  ``product`` walks
pairs of states and ``determinize``, ``minimize`` and ``remove_level``
subsets of states, all with one label.  ``split`` walks the shared
form's own states and ``join`` subsets of entries side by side.
``project_entries`` walks subsets of one shared automaton and
``combine_entries`` pairs of states, one per operand, and below a removed
level sets of such pairs.  This is the multi-terminal apply of algebraic
decision diagrams (Bahar et al., ICCAD 1993) on shared diagrams, across
different scopes as in AOMDDs (Mateescu, Dechter & Marinescu, JAIR 33,
2008); removing a level in the same walk is the relational product of
symbolic model checking (Burch et al., LICS 1990) in min-sum form.
"""

from array import array

WILDCARD = -1
DEAD = -1  # an empty language: a missing state, or a child with no strings
NO_EDGES = {}  # the literal edges of a state that has none; never mutated


def _empty_parts():
    # canonical empty language: a lone non-accepting start state
    return array("i", [0, 0]), array("i"), array("i"), array("i")


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


class _Unique:
    """The per-label finisher: one result state per label below a node.

    State 0 is the accepting sink, shared by every label.  ``finish`` gives
    a node one state per label reachable below it: the state's edges are
    the node's kids whose child reaches that label, a complete literal fan
    onto one child becomes a wildcard, and the state is looked up by
    (level, symbols, destinations).  Equal right languages thus share one
    state, whatever their label, so every label's automaton is minimal as
    built (the "apply with a unique table" of Bryant, IEEE TC 35(8), 1986)
    and only the breadth-first renumbering is left for ``parts``.
    """

    def __init__(self):
        self.esym = [()]
        self.edst = [()]
        self.table = {}

    @staticmethod
    def leaf(label):
        """{label: state} of a node past the last level."""
        return {} if label is None else {label: 0}

    def finish(self, lv, k, kids, built):
        """{label: state} of the node with edges ``kids``, [(symbol, child), ...].

        ``built`` maps every child to its {label: state}; ``k`` is the
        domain size of level ``lv``.
        """
        per = {}  # label -> (symbols, destinations)
        for v, child in kids:
            for label, d in built[child].items():
                edges = per.get(label)
                if edges is None:
                    per[label] = ([v], [d])
                else:
                    edges[0].append(v)
                    edges[1].append(d)
        table = self.table
        states = {}
        for label, (syms, dsts) in per.items():
            sig = _collapse(lv, k, syms, dsts)
            sid = table.get(sig)
            if sid is None:
                sid = table[sig] = len(self.esym)
                self.esym.append(sig[1])
                self.edst.append(sig[2])
            states[label] = sid
        return states

    def parts(self, root):
        """Canonical flat parts of the automaton rooted at state ``root``."""
        if root == DEAD:
            return _empty_parts()
        old2new, csr = _renumber(self.esym, self.edst, root)
        return (*csr, array("i", [old2new[0]]))  # every state reaches the sink


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
    """The depth-first walk behind every kernel but ``compile_sorted``.

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


def compile_sorted(digits, n_strings, length, domains):
    """Build the minimal DAFSA for ``n_strings`` fixed-length strings.

    ``digits`` is a flat int buffer, row-major ``n_strings x length``, rows
    strictly increasing lexicographically.  Incremental register
    construction: once the input moves past a prefix, the suffix states are
    frozen (a complete fan collapsed) and deduplicated against previously
    registered states; the root is frozen last.
    """
    if length == 0:
        off = array("i", [0, 0])
        acc = array("i", [0] if n_strings else [])
        return off, array("i"), array("i"), acc
    if n_strings == 0:
        return _empty_parts()

    esym = [[], []]
    edst = [[], []]
    FINAL = 1  # shared sink for depth == length, never grows edges
    register = {}

    def freeze(s, depth):
        """Collapse s's complete literal fan; return its registered twin."""
        sig = _collapse(depth, domains[depth], esym[s], edst[s])
        esym[s], edst[s] = sig[1], sig[2]
        return register.setdefault(sig, s)

    path = [0]  # path[d] = state at depth d, the final sink excluded
    base = 0
    for i in range(n_strings):
        base = i * length
        cpl = 0
        if i:
            pbase = base - length
            while cpl < length and digits[pbase + cpl] == digits[base + cpl]:
                cpl += 1
        while len(path) - 1 > cpl:
            d = len(path) - 1
            child = path.pop()
            edst[path[-1]][-1] = freeze(child, d)
        for d in range(cpl, length):
            sym = digits[base + d]
            parent = path[-1]
            if d == length - 1:
                esym[parent].append(sym)
                edst[parent].append(FINAL)
            else:
                t = len(esym)
                esym.append([])
                edst.append([])
                esym[parent].append(sym)
                edst[parent].append(t)
                path.append(t)
    while len(path) > 1:
        d = len(path) - 1
        child = path.pop()
        edst[path[-1]][-1] = freeze(child, d)
    freeze(0, 0)

    old2new, csr = _renumber(esym, edst, 0)
    return (*csr, array("i", [old2new[FINAL]]))


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


def product(
    mode,
    na, offa, syma, dsta, acca, starta,
    nb, offb, symb, dstb, accb, startb,
    domains,
):
    """Lockstep pair construction: 0 = intersect, 1 = union, 2 = difference.

    The walk over pairs of states, with one label.  A missing state on one
    side is tracked as the dead id -1, so union and difference can keep
    walking the side that is still alive.
    """
    acca_set = set(acca)
    accb_set = set(accb)
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

    dec_a = _decoder(offa, syma, dsta)
    dec_b = _decoder(offb, symb, dstb)

    def kids_of(pair, lv):
        return _merge(domains[lv], dec_a(pair[0]), dec_b(pair[1]), live)

    def label_of(pair):
        return 0 if accepts(*pair) else None

    root = (starta, startb)
    out = _Unique()
    built = _walk(domains, root, kids_of, label_of, out)
    return out.parts(built[root].get(0, DEAD))


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


def determinize(n, t_off, t_sym, t_dst, acc, start, domains):
    """Subset construction for a leveled NFA.

    Input states may carry duplicate symbols and wildcards next to
    literals.  Returns (t_off, t_sym, t_dst, acc, raw_states) where
    raw_states counts the distinct subsets visited, the honest size of
    the determinized machine.
    """
    out = _Unique()
    root, _, raw_states = _subset_walk(
        t_off, t_sym, t_dst, (start,), dict.fromkeys(acc, 0), domains, -1, out
    )
    return (*out.parts(root.get(0, DEAD)), raw_states)


def minimize(n, t_off, t_sym, t_dst, acc, start, domains):
    return determinize(n, t_off, t_sym, t_dst, acc, start, domains)[:4]


def remove_level(n, t_off, t_sym, t_dst, acc, start, domains, lvl):
    """Project out level ``lvl``: contract its edges, then determinize.

    Contraction gives each level-``lvl`` state the merged edges of its
    successors, which in general is nondeterministic.  The walk reads them
    on the fly, so no NFA is built.  Returns (t_off, t_sym, t_dst, acc,
    nfa_states, raw_states): the canonical result, the number of states of
    the contracted automaton (those reachable, minus level ``lvl + 1``)
    and the number of distinct subsets visited.
    """
    out = _Unique()
    root, nfa_states, raw_states = _subset_walk(
        t_off, t_sym, t_dst, (start,), dict.fromkeys(acc, 0),
        domains[:lvl] + domains[lvl + 1 :], lvl, out,
    )
    return (*out.parts(root.get(0, DEAD)), nfa_states, raw_states)


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

    The walk over the shared form's own states with the per-label
    finisher, which re-minimizes each label's part of the diagram.
    """
    off, sym, dst, term = shared

    def kids_of(s, lv):
        lo, hi = off[s], off[s + 1]
        return list(zip(sym[lo:hi], dst[lo:hi]))

    def label_of(s):
        return term[s] if term[s] >= 0 else None

    out = _Unique()
    built = _walk(domains, 0, kids_of, label_of, out)
    return [(label, out.parts(s)) for label, s in sorted(built[0].items())]


def project_entries(shared, domains, lvl):
    """Remove level ``lvl``; each string takes the lowest label it reaches.

    The subset walk over the shared form with level ``lvl`` contracted, as
    in ``remove_level``.  Returns (shared, labels, (states, subsets)).
    """
    off, sym, dst, term = shared
    owner = {s: t for s, t in enumerate(term) if t >= 0}
    out = _Shared()
    root, states, subsets = _subset_walk(
        off, sym, dst, (0,), owner, domains[:lvl] + domains[lvl + 1 :], lvl, out
    )
    return (*out.parts(root), (states, subsets))


def combine_entries(a, b, domains, in_a, in_b, labels, lvl=-1):
    """Walk A and B in step over the union levels, labelled by label pair.

    A node is a pair (A state, B state); on a level outside an operand's
    scope its state stays where it is.

    With ``lvl`` >= 0, union level ``lvl`` is removed on the fly, which is
    min-projection of the combined function without building it.  A node
    below the removed level is the set of pairs that the level's values
    lead to (one pair stays a plain pair node).  Stepping a set steps each
    member pair, memoized per pair, and groups the children by symbol,
    wildcards as in ``_Subsets.kids`` (``_kids``); a leaf takes the lowest
    label among its member pairs.

    Returns (shared, labels, (pairs, nodes)): the distinct pairs and the
    distinct nodes visited.
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

    root = (0, 0)
    out = _Shared()
    if lvl < 0:
        built = _walk(domains, root, pair_kids, pair_label, out)
        pairs = len(built)
    else:
        root, built, pairs = _fused_walk(domains, root, pair_kids, pair_label, lvl, out)
    return (*out.parts(built[root]), (pairs, len(built)))


def _fused_walk(domains, root, pair_kids, pair_label, lvl, out):
    """The walk over pairs with union level ``lvl`` removed on the fly.

    ``pair_kids(pair, lv)`` and ``pair_label(pair)`` are the pair walk's.
    A node above level ``lvl`` is a pair; a node below it is a frozenset
    of two or more pairs, or a lone pair.  Returns the root node, {node:
    what ``out`` built} and the number of distinct pairs.
    """
    stepped = {}  # pair below the removed level -> its kids
    contracted = {}  # pair on the removed level -> the node of its children

    def step(pair, lv):
        got = stepped.get(pair)
        if got is None:
            got = stepped[pair] = pair_kids(pair, lv)
        return got

    def node_of(pairs):
        return next(iter(pairs)) if len(pairs) == 1 else frozenset(pairs)

    def contract(pair):
        got = contracted.get(pair)
        if got is None:
            got = contracted[pair] = node_of({child for _, child in pair_kids(pair, lvl)})
        return got

    def kids_of(node, lv):
        if lv < lvl:  # a pair above the removed level
            kids = pair_kids(node, lv)
            if lv == lvl - 1:
                kids = [(v, c) for v, c in ((v, contract(child)) for v, child in kids) if c]
            return kids
        lv += 1  # the union level
        if type(node) is not frozenset:
            return step(node, lv)
        wild = set()
        expl = {}
        for pair in node:
            for v, child in step(pair, lv):
                if v == WILDCARD:
                    wild.add(child)
                elif v in expl:
                    expl[v].add(child)
                else:
                    expl[v] = {child}
        expl = {v: node_of(expl[v] | wild) for v in sorted(expl)}
        return _kids(expl, wild and node_of(wild), domains[lv])

    def label_of(node):
        labels = map(pair_label, node if type(node) is frozenset else (node,))
        return min((label for label in labels if label is not None), default=None)

    if lvl == 0:
        root = contract(root)
    built = _walk(domains[:lvl] + domains[lvl + 1 :], root, kids_of, label_of, out)
    pairs = set(contracted)
    for node in built:
        if type(node) is frozenset:
            pairs.update(node)
        else:
            pairs.add(node)
    return root, built, len(pairs)
