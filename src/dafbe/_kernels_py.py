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
of range, broken offsets, symbols outside their level's domain) give a
Python exception or a meaningless result, never a crash, and the
byte-identity contract does not cover them.  The compiled edition checks
them before it reads them and raises ``AutomatonError``.

``product`` builds its result minimal: it expands state pairs depth first
and looks each result state up in a unique table once its children are
known, so only the breadth-first renumbering follows.  ``determinize``
and ``remove_level`` build first and merge equal states afterwards
(``_minimize_struct``), as ``minimize`` does.
"""

from array import array

WILDCARD = -1


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


def _levels(n, edst, root):
    """BFS levels from root; -1 marks unreachable states."""
    lev = [-1] * n
    lev[root] = 0
    order = [root]
    head = 0
    while head < len(order):
        s = order[head]
        head += 1
        nl = lev[s] + 1
        for d in edst[s]:
            if lev[d] < 0:
                lev[d] = nl
                order.append(d)
    return lev


def _minimize_struct(n, esym, edst, final, root, domains):
    """Merge equivalent states bottom-up; return canonical flat parts.

    Equivalence signature: (level, accepting, edge list with destinations
    replaced by their merged ids).  Dead edges (no path to an accepting
    state) are dropped first, complete literal fans collapse to wildcards,
    so minimality and the wildcard normal form come out together.
    """
    L = len(domains)
    lev = _levels(n, edst, root)
    buckets = [[] for _ in range(L + 1)]
    for s in range(n):
        if lev[s] >= 0:
            buckets[lev[s]].append(s)

    alive = [False] * n
    for lv in range(L, -1, -1):
        for s in buckets[lv]:
            if final[s]:
                alive[s] = True
                continue
            for d in edst[s]:
                if alive[d]:
                    alive[s] = True
                    break

    rep = [-1] * n
    sig2id = {}
    m_esym = []
    m_edst = []
    m_final = []
    for lv in range(L, -1, -1):
        k = domains[lv] if lv < L else 0
        for s in buckets[lv]:
            if not alive[s]:
                continue
            syms = []
            dsts = []
            src_syms = esym[s]
            src_dsts = edst[s]
            for j in range(len(src_syms)):
                d = src_dsts[j]
                if alive[d]:
                    syms.append(src_syms[j])
                    dsts.append(rep[d])
            if (
                len(syms) == k
                and k > 0
                and syms[0] == 0
                and syms[-1] == k - 1
                and min(dsts) == max(dsts)
            ):
                syms = [WILDCARD]
                dsts = [dsts[0]]
            sig = (lv, final[s], tuple(syms), tuple(dsts))
            mid = sig2id.get(sig)
            if mid is None:
                mid = len(m_esym)
                sig2id[sig] = mid
                m_esym.append(syms)
                m_edst.append(dsts)
                m_final.append(final[s])
            rep[s] = mid

    if rep[root] < 0:
        return _empty_parts()
    return _renumber(m_esym, m_edst, m_final, rep[root])


def _unpack(n, t_off, t_sym, t_dst, acc):
    esym = [list(t_sym[t_off[s] : t_off[s + 1]]) for s in range(n)]
    edst = [list(t_dst[t_off[s] : t_off[s + 1]]) for s in range(n)]
    final = [False] * n
    for a in acc:
        final[a] = True
    return esym, edst, final


def minimize(n, t_off, t_sym, t_dst, acc, start, domains):
    esym, edst, final = _unpack(n, t_off, t_sym, t_dst, acc)
    return _minimize_struct(n, esym, edst, final, start, domains)


def compile_sorted(digits, n_strings, length, domains):
    """Build the minimal DAFSA for ``n_strings`` fixed-length strings.

    ``digits`` is a flat int buffer, row-major ``n_strings x length``, rows
    strictly increasing lexicographically.  Incremental register
    construction: once the input moves past a prefix, the suffix states are
    frozen and deduplicated against previously registered states.
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

    def replace_or_register(s, depth):
        sig = (depth, tuple(esym[s]), tuple(edst[s]))
        hit = register.get(sig)
        if hit is None:
            register[sig] = s
            return s
        return hit

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
            r = replace_or_register(child, d)
            edst[path[-1]][-1] = r
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
        r = replace_or_register(child, d)
        edst[path[-1]][-1] = r

    # wildcard normal form, then canonical numbering; the register output
    # is already minimal so no merge pass is needed
    n = len(esym)
    lev = _levels(n, edst, 0)
    for s in range(n):
        lv = lev[s]
        if lv < 0 or lv >= length:
            continue
        k = domains[lv]
        syms = esym[s]
        dsts = edst[s]
        if len(syms) == k and syms[0] == 0 and syms[-1] == k - 1 and min(dsts) == max(dsts):
            esym[s] = [WILDCARD]
            edst[s] = [dsts[0]]
    final = [s == FINAL for s in range(n)]
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
    bounded by the recursion limit.  Once a pair's children are built, its
    edges drop children with an empty language, a complete literal fan
    onto one child becomes a wildcard, and the state is looked up in a
    unique table keyed by (level, symbols, destinations): equal right
    languages share one state, so the result is minimal as built (the
    "apply with a unique table" of Bryant, IEEE TC 35(8), 1986) and only
    the breadth-first renumbering is left.
    """
    L = len(domains)
    DEAD = -1
    acca_set = set(acca)
    accb_set = set(accb)

    # result states in the order they are built, children first; state 0
    # is the accepting sink, unreachable (and dropped) if nothing accepts
    esym = [[]]
    edst = [[]]
    unique = {}
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
        if kids is None:
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
            continue

        syms = []
        dsts = []
        for v, child in kids:
            d = built[child]
            if d != DEAD:
                syms.append(v)
                dsts.append(d)
        if not syms:
            built[pair] = DEAD
            continue
        if len(syms) == domains[lv] and min(dsts) == max(dsts):
            syms = [WILDCARD]
            dsts = dsts[:1]
        sig = (lv, tuple(syms), tuple(dsts))
        sid = unique.get(sig)
        if sid is None:
            sid = unique[sig] = len(esym)
            esym.append(syms)
            edst.append(dsts)
        built[pair] = sid

    root_id = built[root]
    if root_id == DEAD:
        return _empty_parts()
    final = [False] * len(esym)
    final[0] = True
    return _renumber(esym, edst, final, root_id)


def determinize(n, t_off, t_sym, t_dst, acc, start, domains):
    """Level-synchronous subset construction for a leveled NFA.

    Input states may carry duplicate symbols and wildcards next to
    literals.  Returns (t_off, t_sym, t_dst, acc, raw_states) where
    raw_states counts subset states before minimization, the honest size
    of the determinized machine.
    """
    L = len(domains)
    acc_set = set(acc)
    sub2id = {(start,): 0}
    subs = [(start,)]
    e_sym = []
    e_dst = []
    final = []

    def child(states):
        cid = sub2id.get(states)
        if cid is None:
            cid = len(subs)
            sub2id[states] = cid
            subs.append(states)
        return cid

    i = 0
    lv = 0
    level_end = 1
    while i < len(subs):
        if i == level_end:
            lv += 1
            level_end = len(subs)
        S = subs[i]
        if lv == L:
            f = False
            for s in S:
                if s in acc_set:
                    f = True
                    break
            e_sym.append([])
            e_dst.append([])
            final.append(f)
            i += 1
            continue
        k = domains[lv]
        wild = set()
        expl = {}
        for s in S:
            for j in range(t_off[s], t_off[s + 1]):
                sym = t_sym[j]
                if sym == WILDCARD:
                    wild.add(t_dst[j])
                else:
                    expl.setdefault(sym, set()).add(t_dst[j])
        out = []
        for v in sorted(expl):
            out.append((v, child(tuple(sorted(expl[v] | wild)))))
        if wild and len(expl) < k:
            cid = child(tuple(sorted(wild)))
            if not expl:
                out.append((WILDCARD, cid))
            else:
                for v in range(k):
                    if v not in expl:
                        out.append((v, cid))
        out.sort()
        e_sym.append([v for v, _ in out])
        e_dst.append([d for _, d in out])
        final.append(False)
        i += 1

    raw_states = len(subs)
    t_off2, t_sym2, t_dst2, acc2 = _minimize_struct(len(subs), e_sym, e_dst, final, 0, domains)
    return t_off2, t_sym2, t_dst2, acc2, raw_states


def remove_level(n, t_off, t_sym, t_dst, acc, start, domains, lvl):
    """Project out level ``lvl``: contract its edges, then determinize.

    Contraction makes each level-``lvl`` state inherit the outgoing edges
    of all its successors, which in general yields an NFA.  Returns
    (t_off, t_sym, t_dst, acc, nfa_states, raw_states): the canonical
    result plus the contracted-NFA state count and the subset-construction
    state count before minimization.
    """
    L = len(domains)
    acc_set = set(acc)
    edst_in = [list(t_dst[t_off[s] : t_off[s + 1]]) for s in range(n)]
    lev = _levels(n, edst_in, start)

    keep = [s for s in range(n) if lev[s] >= 0 and lev[s] != lvl + 1]
    old2new = {s: i for i, s in enumerate(keep)}
    e_sym = []
    e_dst = []
    final = []
    for s in keep:
        if lev[s] == lvl:
            agg = set()
            fin = False
            for j in range(t_off[s], t_off[s + 1]):
                t = t_dst[j]
                if t in acc_set:
                    fin = True
                for jj in range(t_off[t], t_off[t + 1]):
                    agg.add((t_sym[jj], old2new[t_dst[jj]]))
            out = sorted(agg)
            e_sym.append([v for v, _ in out])
            e_dst.append([d for _, d in out])
            final.append(fin)
        else:
            e_sym.append(list(t_sym[t_off[s] : t_off[s + 1]]))
            e_dst.append([old2new[d] for d in edst_in[s]])
            final.append(s in acc_set)

    nfa_states = len(keep)
    new_domains = domains[:lvl] + domains[lvl + 1 :]

    # flatten the NFA back to CSR for determinize
    f_off = array("i", [0])
    f_sym = array("i")
    f_dst = array("i")
    for s in range(nfa_states):
        f_sym.extend(e_sym[s])
        f_dst.extend(e_dst[s])
        f_off.append(len(f_sym))
    f_acc = array("i", sorted(i for i in range(nfa_states) if final[i]))
    t_off2, t_sym2, t_dst2, acc2, raw_states = determinize(
        nfa_states, f_off, f_sym, f_dst, f_acc, old2new[start], new_domains
    )
    return t_off2, t_sym2, t_dst2, acc2, nfa_states, raw_states
