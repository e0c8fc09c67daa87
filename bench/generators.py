"""Seeded instance generators for the solve benchmark.

Every generator takes a ``random.Random`` and returns the text of one
instance file; the solver only ever sees those files.  The generators do
not import dafbe, so a change to the solver cannot change the corpus.

Hard costs are written as the instance's upper bound, which the WCSP
parser maps to infinity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

UPPER = 1000  # WCSP upper bound: any cost >= UPPER is a hard violation


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    suffix: str  # file extension the CLI dispatches on
    corpus_size: int  # instances per corpus
    generate: object  # (rng, index) -> instance text
    check: str  # "oracle" (reference optimum) or "certificate" (zero lower bound)
    why: str


def _wcsp_text(name, domains, functions):
    """functions: (scope, default, [(tuple, cost), ...])."""
    lines = [f"{name} {len(domains)} {max(domains)} {len(functions)} {UPPER}",
             " ".join(map(str, domains))]
    for scope, default, exceptions in functions:
        lines.append(" ".join(map(str, [len(scope), *scope, default, len(exceptions)])))
        for tup, cost in exceptions:
            lines.append(" ".join(map(str, [*tup, cost])))
    return "\n".join(lines) + "\n"


def _distinct_tuples(rng, arity, count, avoid):
    """``count`` distinct binary tuples of length ``arity``, none in ``avoid``."""
    out = []
    seen = set(avoid)
    while len(out) < count:
        tup = tuple(rng.randrange(2) for _ in range(arity))
        if tup not in seen:
            seen.add(tup)
            out.append(tup)
    return out


def min_fill_width(n_vars, scopes):
    """Induced width of the greedy min-fill elimination order.

    Same rule as the solver's default ordering (fewest missing edges
    among remaining neighbours, ties to the lowest id), reimplemented here
    so that the corpus does not depend on the program under test.
    Neighbour sets are int bitmasks.
    """
    adj = [0] * n_vars
    for scope in scopes:
        mask = sum(1 << v for v in scope)
        for v in scope:
            adj[v] |= mask & ~(1 << v)
    remaining = (1 << n_vars) - 1
    width = 0
    for _ in range(n_vars):
        best, best_cost = -1, None
        for v in range(n_vars):
            if not remaining >> v & 1:
                continue
            nbrs = adj[v] & remaining
            cost = sum((nbrs & ~adj[a] & ~(1 << a)).bit_count() for a in _bits(nbrs)) // 2
            if best_cost is None or cost < best_cost:
                best, best_cost = v, cost
        nbrs = adj[best] & remaining
        width = max(width, nbrs.bit_count())
        for a in _bits(nbrs):
            adj[a] |= nbrs & ~(1 << a)
        remaining &= ~(1 << best)
    return width


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _scopes_of_width(rng, n_vars, n_factors, arity, width):
    """Random scopes, redrawn until their min-fill induced width is ``width``.

    Solve time grows steeply with width, so fixing each instance's width
    keeps one corpus about as hard as the next.
    """
    while True:
        scopes = [sorted(rng.sample(range(n_vars), arity)) for _ in range(n_factors)]
        if min_fill_width(n_vars, scopes) == width:
            return scopes


def wcsp_planted(rng, index, n_vars=20, n_factors=12, arity=6, n_zero=3, n_hard=3,
                 widths=(11,)):
    """Binary WCSP with a nonzero optimum and hard constraints.

    Each factor charges a default cost of 1..4 everywhere except a few
    zero-cost tuples and a few hard tuples.  A planted assignment avoids
    every hard tuple, so the instance is feasible; reaching cost 0 would
    need all factors to hit one of their few zero tuples at once, which
    random scopes practically never allow.  Instance ``index`` has induced
    width ``widths[index % len(widths)]``.
    """
    scopes = _scopes_of_width(rng, n_vars, n_factors, arity, widths[index % len(widths)])
    planted = [rng.randrange(2) for _ in range(n_vars)]
    functions = []
    for scope in scopes:
        at_planted = tuple(planted[v] for v in scope)
        hard = _distinct_tuples(rng, arity, n_hard, avoid=[at_planted])
        zero = _distinct_tuples(rng, arity, n_zero, avoid=hard)
        exceptions = [(t, 0) for t in zero] + [(t, UPPER) for t in hard]
        rng.shuffle(exceptions)
        functions.append((scope, rng.randint(1, 4), exceptions))
    return _wcsp_text(f"planted{index}", [2] * n_vars, functions)


GRID_LEVELS = (1.0, 0.8, 0.5, 0.3, 0.1)


def map_grid(rng, index, rows=8, cols=8):
    """UAI MARKOV binary grid with Potts-style pairwise potentials.

    Unary and pairwise values come from a few fixed levels in (0, 1],
    drawn without regard to the solver's keying epsilon: a pairwise
    factor gives one level when its ends agree and another when they
    differ.
    """
    n = rows * cols
    scopes, tables = [], []
    for v in range(n):
        scopes.append([v])
        tables.append([rng.choice(GRID_LEVELS), rng.choice(GRID_LEVELS)])
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            for u in ([v + 1] if c + 1 < cols else []) + ([v + cols] if r + 1 < rows else []):
                same, diff = rng.sample(GRID_LEVELS, 2)
                scopes.append([v, u])
                tables.append([same, diff, diff, same])
    lines = ["MARKOV", str(n), " ".join(["2"] * n), str(len(scopes))]
    lines += [" ".join(map(str, [len(s), *s])) for s in scopes]
    for t in tables:
        lines += ["", str(len(t)), " ".join(repr(x) for x in t)]
    return "\n".join(lines) + "\n"


def wcsp_wide_arity(rng, index, n_vars=20, arities=(18, 16), n_exc=6):
    """Wide functions given as default + a handful of exceptions, plus a
    chain of binary functions.

    Every instance has the same wide arities, one each of 18 and 16, so
    that solve times spread little within a corpus and its median rests
    on every instance, not on a few of one arity.
    """
    functions = []
    for arity in arities:
        scope = sorted(rng.sample(range(n_vars), arity))
        tuples = _distinct_tuples(rng, arity, n_exc, avoid=())
        exceptions = [(t, rng.randint(0, 3)) for t in tuples]
        functions.append((scope, rng.randint(4, 6), exceptions))
    for v in range(n_vars - 1):
        same, diff = rng.randint(0, 2), rng.randint(1, 4)
        functions.append(([v, v + 1], same, [((0, 1), diff), ((1, 0), diff)]))
    return _wcsp_text(f"wide{index}", [2] * n_vars, functions)


def wcsp_high_width(rng, index, n_vars=48, n_factors=30, arity=8, n_exc=1,
                    widths=(31, 32, 33)):
    """``high_redundancy_model``-shaped WCSP with a planted zero optimum.

    Factors are 0 except for ``n_exc`` tuples costing 1 or 2.  No costed
    tuple matches the planted assignment, so the optimum is exactly 0:
    costs are nonnegative, and the solver's answer can be certified
    without an oracle, which could not handle the induced width.
    Instance ``index`` has induced width ``widths[index % len(widths)]``.
    """
    scopes = _scopes_of_width(rng, n_vars, n_factors, arity, widths[index % len(widths)])
    planted = [rng.randrange(2) for _ in range(n_vars)]
    functions = []
    for scope in scopes:
        tuples = _distinct_tuples(rng, arity, n_exc, avoid=[tuple(planted[v] for v in scope)])
        functions.append((scope, 0, [(t, rng.choice((1, 2))) for t in tuples]))
    return _wcsp_text(f"width{index}", [2] * n_vars, functions)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "wcsp-planted", ".wcsp", 48, wcsp_planted, "oracle",
            "redundant arity-6 WCSP with real nonzero optima and hard rows; time goes to "
            "factor.project and factor.combine",
        ),
        Workload(
            "map-grid", ".uai", 12, map_grid, "oracle",
            "MAP product/max path on pairwise grids; thousands of tiny combines test "
            "per-call overhead and probability-scale value keying",
        ),
        Workload(
            "wcsp-wide-arity", ".wcsp", 10, wcsp_wide_arity, "oracle",
            "arity 18 and 16 functions given sparsely; time and memory go to parsing, "
            "table compilation and keying",
        ),
        Workload(
            "wcsp-high-width", ".wcsp", 48, wcsp_high_width, "certificate",
            "induced width beyond the dense oracle; time goes to scope alignment "
            "(add_levels, insert_wildcard_level)",
        ),
    )
}


def corpus(workload: Workload, seed: int):
    """[(file name, text)] for one workload and seed."""
    digits = max(2, len(str(workload.corpus_size - 1)))
    out = []
    for i in range(workload.corpus_size):
        # one stream per instance: an instance does not depend on corpus size
        rng = random.Random(f"{workload.name}:{seed}:{i}")
        out.append((f"{workload.name}-{i:0{digits}d}{workload.suffix}", workload.generate(rng, i)))
    return out


def digest(pairs):
    """sha256 over the corpus file names and texts."""
    h = hashlib.sha256()
    for name, text in pairs:
        h.update(f"{name}\0{text}\0".encode("ascii"))
    return h.hexdigest()


__all__ = ["WORKLOADS", "Workload", "corpus", "digest", "UPPER"]
