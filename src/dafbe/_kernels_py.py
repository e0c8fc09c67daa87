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

This edition does not check its inputs.  Malformed arrays (state ids out
of range, broken offsets, symbols outside their level's domain, edges
that do not run to the next level) give a Python exception or a
meaningless result, never a crash, and the byte-identity contract does
not cover them.  The compiled edition checks them before it reads them
and raises ``AutomatonError``.

Every kernel builds its result minimal, with no merge pass afterwards.
``compile_sorted`` registers each suffix state once it is complete.
``product`` and the subset walk ``_walk`` expand states depth first and
intern each one in a unique table (``_Unique``) once its children are
built.  ``determinize`` walks an NFA, ``minimize`` a DFA (an NFA whose
subsets are singletons) and ``remove_level`` the input with one level
contracted on the fly.
"""

from array import array

WILDCARD = -1
DEAD = -1  # an empty language: a missing state, or a child with no strings


def _empty_parts():
    # canonical empty language: a lone non-accepting start state
    return array("i", [0, 0]), array("i"), array("i"), array("i")


def _renumber(esym, edst, final, root):
    """Canonical BFS renumbering.  Per-state edges must be symbol-sorted."""
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
    acc = sorted(old2new[s] for s, f in enumerate(final) if f and s in old2new)
    return array("i", off), array("i", sym), array("i", dst), array("i", acc)


class _Unique:
    """Result states, built children first and interned in a unique table.

    State 0 is the accepting sink, unreachable (and dropped) if nothing
    accepts.  ``finish`` drops a state's children with an empty language,
    rewrites a complete literal fan onto one child as a wildcard and looks
    the state up by (level, symbols, destinations).  Equal right languages
    thus share one state, so the result is minimal as built (the "apply
    with a unique table" of Bryant, IEEE TC 35(8), 1986) and only the
    breadth-first renumbering is left for ``parts``.
    """

    def __init__(self):
        self.esym = [[]]
        self.edst = [[]]
        self.table = {}

    def finish(self, lv, k, kids, built):
        """The state with edges ``kids``, [(symbol, child key), ...], or DEAD.

        ``built`` maps every child key to its state (or DEAD); ``k`` is the
        domain size of level ``lv``.
        """
        syms = []
        dsts = []
        for v, child in kids:
            d = built[child]
            if d != DEAD:
                syms.append(v)
                dsts.append(d)
        if not syms:
            return DEAD
        if len(syms) == k and min(dsts) == max(dsts):
            syms = [WILDCARD]
            dsts = dsts[:1]
        sig = (lv, tuple(syms), tuple(dsts))
        sid = self.table.get(sig)
        if sid is None:
            sid = self.table[sig] = len(self.esym)
            self.esym.append(syms)
            self.edst.append(dsts)
        return sid

    def parts(self, root):
        """Canonical flat parts of the automaton rooted at state ``root``."""
        if root == DEAD:
            return _empty_parts()
        final = [False] * len(self.esym)
        final[0] = True
        return _renumber(self.esym, self.edst, final, root)


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
        syms = esym[s]
        dsts = edst[s]
        if len(syms) == domains[depth] and min(dsts) == max(dsts):
            esym[s] = syms = [WILDCARD]
            edst[s] = dsts = dsts[:1]
        return register.setdefault((depth, tuple(syms), tuple(dsts)), s)

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

    final = [s == FINAL for s in range(len(esym))]
    return _renumber(esym, edst, final, 0)


def product(
    mode,
    na, offa, syma, dsta, acca, starta,
    nb, offb, symb, dstb, accb, startb,
    domains,
):
    """Lockstep pair construction: 0 = intersect, 1 = union, 2 = difference.

    A missing state on one side is tracked as the dead id -1, so union and
    difference can keep walking the side that is still alive.  Pairs are
    expanded depth first on an explicit stack, so automaton length is not
    bounded by the recursion limit, and ``_Unique`` finishes each pair once
    its children are built, so the result is minimal as built.
    """
    L = len(domains)
    acca_set = set(acca)
    accb_set = set(accb)
    out = _Unique()
    built = {}  # (pa, pb) -> result state, DEAD for an empty language

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

    def decode(off, sym, dst, s):
        """(wildcard destination or DEAD, {literal: destination})."""
        lo, hi = off[s], off[s + 1]
        if hi > lo and sym[lo] == WILDCARD:
            return dst[lo], {}
        return DEAD, dict(zip(sym[lo:hi], dst[lo:hi]))

    dec_a = {DEAD: (DEAD, {})}
    dec_b = {DEAD: (DEAD, {})}

    # a frame is (pair, level, None) until its children are pushed above
    # it, then (pair, level, [(symbol, child pair), ...]) until it is built
    root = (starta, startb)
    stack = [(root, 0, None)]
    while stack:
        pair, lv, kids = stack.pop()
        if kids is not None:
            built[pair] = out.finish(lv, domains[lv], kids, built)
            continue
        if pair in built:
            continue
        pa, pb = pair
        if lv == L:
            built[pair] = 0 if accepts(pa, pb) else DEAD
            continue
        if pa not in dec_a:
            dec_a[pa] = decode(offa, syma, dsta, pa)
        if pb not in dec_b:
            dec_b[pb] = decode(offb, symb, dstb, pb)
        awild, amap = dec_a[pa]
        bwild, bmap = dec_b[pb]
        kids = []
        if amap or bmap:
            explicit = sorted(amap.keys() | bmap.keys()) if bmap else list(amap)
            for v in explicit:
                child = (amap.get(v, awild), bmap.get(v, bwild))
                if live(*child):
                    kids.append((v, child))
            k = domains[lv]
            if len(explicit) < k and live(awild, bwild):
                # symbols neither side names follow both wildcards
                child = (awild, bwild)
                seen = set(explicit)
                kids.extend((v, child) for v in range(k) if v not in seen)
                kids.sort()
        elif live(awild, bwild):
            kids.append((WILDCARD, (awild, bwild)))
        stack.append((pair, lv, kids))
        nl = lv + 1
        for _, child in kids:
            if child not in built:
                stack.append((child, nl, None))

    return out.parts(built[root])


def _walk(domains, root, edges, accepting):
    """Depth-first subset construction that builds its result minimal.

    A subset is a sorted tuple of input states, all on one level.
    ``edges(s, lv)`` gives the (symbol, destination) pairs of member ``s``
    on level ``lv``, duplicates and wildcards beside literals allowed, and
    ``accepting(s)`` tells whether a member on the last level accepts.
    Subsets are expanded as ``product`` expands pairs.  Returns the
    canonical parts and the dict of every distinct subset reachable from
    ``root``, including those with an empty language.
    """
    L = len(domains)
    out = _Unique()
    built = {}  # subset -> result state, DEAD for an empty language
    stack = [(root, 0, None)]
    while stack:
        sub, lv, kids = stack.pop()
        if kids is not None:
            built[sub] = out.finish(lv, domains[lv], kids, built)
            continue
        if sub in built:
            continue
        if lv == L:
            built[sub] = 0 if any(map(accepting, sub)) else DEAD
            continue
        wild = set()
        expl = {}
        for s in sub:
            for v, d in edges(s, lv):
                if v == WILDCARD:
                    wild.add(d)
                elif v in expl:
                    expl[v].add(d)
                else:
                    expl[v] = {d}
        kids = [(v, tuple(sorted(expl[v] | wild))) for v in sorted(expl)]
        k = domains[lv]
        if wild and len(expl) < k:
            child = tuple(sorted(wild))
            if expl:
                kids.extend((v, child) for v in range(k) if v not in expl)
                kids.sort()
            else:
                kids.append((WILDCARD, child))
        stack.append((sub, lv, kids))
        nl = lv + 1
        for _, child in kids:
            if child not in built:
                stack.append((child, nl, None))
    return out.parts(built[root]), built


def determinize(n, t_off, t_sym, t_dst, acc, start, domains):
    """Subset construction for a leveled NFA.

    Input states may carry duplicate symbols and wildcards next to
    literals.  Returns (t_off, t_sym, t_dst, acc, raw_states) where
    raw_states counts the distinct subsets visited, the honest size of
    the determinized machine.
    """

    def edges(s, lv):
        lo, hi = t_off[s], t_off[s + 1]
        return zip(t_sym[lo:hi], t_dst[lo:hi])

    parts, subsets = _walk(domains, (start,), edges, set(acc).__contains__)
    return (*parts, len(subsets))


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
    acc_set = set(acc)
    merged = {}  # level-lvl state -> its contracted edges

    def own(s):
        lo, hi = t_off[s], t_off[s + 1]
        return zip(t_sym[lo:hi], t_dst[lo:hi])

    def edges(s, lv):
        if lv != lvl:
            return own(s)
        e = merged.get(s)
        if e is None:
            e = merged[s] = {edge for t in t_dst[t_off[s] : t_off[s + 1]] for edge in own(t)}
        return e

    if lvl == len(domains) - 1:
        # contracted states are the new last level: they accept through
        # an accepting successor
        def accepting(s):
            return any(t in acc_set for t in t_dst[t_off[s] : t_off[s + 1]])
    else:
        accepting = acc_set.__contains__

    parts, subsets = _walk(domains[:lvl] + domains[lvl + 1 :], (start,), edges, accepting)
    nfa_states = len(set().union(*subsets))
    return (*parts, nfa_states, len(subsets))
