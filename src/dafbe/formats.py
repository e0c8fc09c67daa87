"""Parsers and writers for the benchmark text formats plus result records.

UAI MARKOV files become MAP (product/max) models, WCSP files become WCSP
(sum/min) models with costs at or above the instance's upper bound mapped
to infinity.  Both parsers track line numbers for error messages, reject
trailing garbage, and parse numbers locale-independently (decimal point
only).  ``write_uai`` / ``write_wcsp`` emit a normal form for which
parse(write(parse(text))) is a fixpoint on the model.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter

from .errors import FormatError
from .model import GraphicalModel, SolverResult, Task
from .factor import SparseFactor, TabularFactor, _trusted


class _Tokens:
    """Whitespace tokens of a text, read one at a time or in runs.

    Lines are counted only for an error message: ``line_of`` walks the
    text again up to the token it names.
    """

    def __init__(self, text):
        self.text = text
        if "#" in text:  # comment tails, seen in some wcsp corpora
            self.items = [tok for line in text.splitlines()
                          for tok in line.split("#", 1)[0].split()]
        else:  # every line break splitlines knows is whitespace to split
            self.items = text.split()
        self.pos = 0

    def line_of(self, index):
        """The line of token ``index``; 1 for no token."""
        for lineno, line in enumerate(self.text.splitlines(), start=1):
            index -= len(line.split("#", 1)[0].split())
            if index < 0:
                return lineno
        return 1

    @property
    def last_line(self):
        """The line of the token read last; 1 before any."""
        return self.line_of(self.pos - 1)

    def next(self, what):
        if self.pos >= len(self.items):
            raise FormatError(f"unexpected end of file, expected {what}", self.last_line)
        self.pos += 1
        return self.items[self.pos - 1]

    def next_int(self, what, minimum=None):
        tok = self.next(what)
        try:
            val = int(tok)
        except ValueError:
            raise FormatError(f"expected integer {what}, got {tok!r}", self.last_line) from None
        if minimum is not None and val < minimum:
            raise FormatError(f"{what} must be >= {minimum}, got {val}", self.last_line)
        return val

    def next_float(self, what):
        tok = self.next(what)
        try:
            # float() is locale-independent in Python: decimal point only
            val = float(tok)
        except ValueError:
            raise FormatError(f"expected number {what}, got {tok!r}", self.last_line) from None
        if math.isnan(val):
            raise FormatError(f"{what} is NaN", self.last_line)
        return val

    def run(self, count):
        """The next ``count`` tokens as a new list; ValueError if fewer are left."""
        end = self.pos + count
        if end > len(self.items):
            raise ValueError("end of file inside a run")
        out = self.items[self.pos:end]
        self.pos = end
        return out

    def expect_end(self):
        if self.pos < len(self.items):
            raise FormatError(f"trailing garbage starting at {self.items[self.pos]!r}",
                              self.line_of(self.pos))


def _read_scope(toks, n_vars, i):
    """Function ``i``'s arity and variables: in range and without repeats."""
    arity = toks.next_int(f"arity of function {i}", minimum=0)
    scope = []
    for j in range(arity):
        v = toks.next_int(f"variable {j} of function {i}")
        if not 0 <= v < n_vars:
            raise FormatError(
                f"function {i} references variable {v}, model has {n_vars}", toks.last_line
            )
        scope.append(v)
    if len(set(scope)) != len(scope):
        raise FormatError(f"function {i} repeats a variable", toks.last_line)
    return scope


def parse_uai(text: str) -> GraphicalModel:
    """UAI MARKOV network as a MAP model (tables multiplied, maximized)."""
    toks = _Tokens(text)
    kind = toks.next("header")
    if kind.upper() not in ("MARKOV", "BAYES"):
        raise FormatError(f"expected MARKOV or BAYES header, got {kind!r}", toks.last_line)
    n_vars = toks.next_int("variable count", minimum=0)
    domains = [toks.next_int(f"domain size of variable {i}", minimum=1) for i in range(n_vars)]
    n_funcs = toks.next_int("function count", minimum=0)
    scopes = [_read_scope(toks, n_vars, i) for i in range(n_funcs)]
    factors = []
    for i, raw_scope in enumerate(scopes):
        count = toks.next_int(f"table size of function {i}", minimum=0)
        expected = math.prod(domains[v] for v in raw_scope)
        if count != expected:
            raise FormatError(
                f"function {i} declares {count} values, scope needs {expected}", toks.last_line
            )
        values = [toks.next_float(f"value {j} of function {i}") for j in range(count)]
        for j, v in enumerate(values):
            if math.isinf(v) or v < 0:
                raise FormatError(f"function {i} value {j} not a finite nonnegative number", toks.last_line)
        dims = tuple(domains[v] for v in raw_scope)
        factors.append(TabularFactor(tuple(range(len(dims))), dims, values).renamed(raw_scope))
    toks.expect_end()
    return GraphicalModel(n_vars, tuple(domains), tuple(factors), Task.MAP)


def parse_wcsp(text: str) -> GraphicalModel:
    """WCSP format as a WCSP model; costs >= the upper bound become inf.

    One checked pass.  It reads the domains, each function's scope line
    and each function's exception rows as runs of tokens and checks each
    run in bulk.  Only a function that fails a bulk check is read again
    one token at a time, to raise the error of its first bad token, on
    that token's line.

    Each function stays a ``SparseFactor``: its default plus the
    exception tuples, each permuted once onto the sorted scope, in file
    order.  A tuple listed twice keeps its last cost.  The factor is
    built without the constructor's checks, which the pass has just made.
    """
    toks = _Tokens(text)
    toks.next("problem name")
    n_vars = toks.next_int("variable count", minimum=0)
    toks.next_int("max domain size", minimum=0)
    n_funcs = toks.next_int("function count", minimum=0)
    upper = toks.next_float("global upper bound")
    start = toks.pos
    try:
        domains = list(map(int, toks.run(n_vars)))
        if min(domains, default=1) < 1:
            raise ValueError("domain below 1")
    except ValueError:
        toks.pos = start
        domains = [toks.next_int(f"domain size of variable {i}", minimum=1)
                   for i in range(n_vars)]
    factors = []
    for i in range(n_funcs):
        start = toks.pos
        try:
            factors.append(_wcsp_function(toks, n_vars, domains, upper))
        except ValueError:
            toks.pos = start
            _recheck_function(toks, i, n_vars, domains)
    toks.expect_end()
    return GraphicalModel(n_vars, tuple(domains), tuple(factors), Task.WCSP)


def _wcsp_function(toks, n_vars, domains, upper):
    """The next function, read in runs and checked in bulk; every failed
    check is a ValueError, which ``_recheck_function`` turns into its
    FormatError."""
    arity = int(toks.run(1)[0])
    if arity < 0:
        raise ValueError("negative arity")
    head = toks.run(arity + 2)
    raw_scope = list(map(int, head[:arity]))
    if arity and (min(raw_scope) < 0 or max(raw_scope) >= n_vars or len(set(raw_scope)) < arity):
        raise ValueError("bad scope")
    default = float(head[arity])
    n_exc = int(head[arity + 1])
    if math.isnan(default) or n_exc < 0:
        raise ValueError("bad default or exception count")
    rows = toks.run(n_exc * (arity + 1))
    costs = list(map(float, rows[arity :: arity + 1]))
    del rows[arity :: arity + 1]
    digits = list(map(int, rows))
    if digits and (min(digits) < 0 or any(
            max(digits[j::arity]) >= domains[v] for j, v in enumerate(raw_scope))):
        raise ValueError("tuple value outside its domain")
    if any(map(math.isnan, costs)):
        raise ValueError("NaN cost")
    perm = sorted(range(arity), key=raw_scope.__getitem__)
    scope = tuple(raw_scope[j] for j in perm)
    dims = tuple(domains[v] for v in scope)
    words = zip(*[iter(digits)] * arity) if arity else [()] * n_exc
    if perm != list(range(arity)):
        words = map(operator.itemgetter(*perm), words)  # two or more positions: tuples
    raw = dict(zip(words, costs))
    # a -inf default is a negative cost even where it covers no cell
    if min(raw.values(), default=0.0) < 0 or default == -math.inf or (
            default < 0 and len(raw) < math.prod(dims)):
        raise ValueError("negative cost")
    exceptions = {word: math.inf if c >= upper else c + 0.0 for word, c in raw.items()}
    default = math.inf if default >= upper else default + 0.0  # -0.0 as +0.0
    return _trusted(SparseFactor, scope=scope, domains=dims, default=default,
                    exceptions=exceptions)


def _recheck_function(toks, i, n_vars, domains):
    """Function ``i`` read again token by token after a failed bulk check:
    raises the FormatError of its first bad token."""
    raw_scope = _read_scope(toks, n_vars, i)
    toks.next_float(f"default cost of function {i}")
    n_exc = toks.next_int(f"exception count of function {i}", minimum=0)
    for e in range(n_exc):
        for j, v in enumerate(raw_scope):
            val = toks.next_int(f"tuple value {j} of exception {e} of function {i}")
            if not 0 <= val < domains[v]:
                raise FormatError(
                    f"exception {e} of function {i}: value {val} outside domain "
                    f"of variable {v}",
                    toks.last_line,
                )
        toks.next_float(f"cost of exception {e} of function {i}")
    # every token passed, so the check that failed was the last one
    raise FormatError(f"function {i} has a negative cost", toks.last_line)


def parse_path(path: str, dialect: str = "auto") -> GraphicalModel:
    """Parse a file as ``uai`` or ``wcsp``; ``auto`` picks wcsp for a .wcsp name.

    A byte outside ASCII is a ``FormatError`` on its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("ascii") + "?").splitlines())
        raise FormatError(f"non-ASCII byte {data[exc.start]:#04x}", line) from None
    if dialect == "wcsp" or (dialect == "auto" and str(path).endswith(".wcsp")):
        return parse_wcsp(text)
    return parse_uai(text)


def _format_value(v: float) -> str:
    v = float(v)
    if v.is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def write_uai(model: GraphicalModel) -> str:
    if model.task is not Task.MAP:
        raise FormatError("write_uai needs a MAP model")
    lines = ["MARKOV", str(model.n_vars), " ".join(map(str, model.domains)), str(len(model.factors))]
    for f in model.factors:
        lines.append(" ".join([str(len(f.scope))] + [str(v) for v in f.scope]))
    for f in model.factors:
        lines.append("")
        lines.append(str(f.size))
        lines.append(" ".join(_format_value(v) for v in f.values))
    return "\n".join(lines) + "\n"


def write_wcsp(model: GraphicalModel, name: str = "instance") -> str:
    """Normal form: finite costs kept, inf written as the upper bound.

    The emitted upper bound is one above the largest finite cost so that
    re-parsing maps exactly the inf cells back to inf.  Each function's
    default is its most frequent value, ties to the smallest; every other
    cell is an exception, in lexicographic order.  That is the form a
    dense table's ``cells`` gives, so it is written as given; a sparse
    function is densified only when its default is outnumbered, and its
    exceptions that hold the default are left out.
    """
    if model.task is not Task.WCSP:
        raise FormatError("write_wcsp needs a WCSP model")
    finite = [v for f in model.factors for v in f.present_values() if v < math.inf]
    upper = math.floor(max([0.0, *finite])) + 1

    def fmt(v):
        return _format_value(upper if math.isinf(v) else v)

    max_dom = max(model.domains, default=0)
    lines = [
        " ".join([name, str(model.n_vars), str(max_dom), str(len(model.factors)), _format_value(upper)]),
        " ".join(map(str, model.domains)),
    ]
    for f in model.factors:
        digits, values, default = f.cells()
        counts = Counter(values)
        if default is not None:
            counts[default] += f.size - len(values)
        chosen = min(counts, key=lambda v: (-counts[v], v))
        if default is not None and chosen != default:
            digits, values, chosen = f.to_table().cells()
        exceptions = [i for i, v in enumerate(values) if v != chosen]
        arity = len(f.scope)
        lines.append(
            " ".join(
                [str(len(f.scope))]
                + [str(v) for v in f.scope]
                + [fmt(chosen), str(len(exceptions))]
            )
        )
        for idx in exceptions:
            word = digits[idx * arity : (idx + 1) * arity]
            lines.append(" ".join([*map(str, word), fmt(values[idx])]))
    return "\n".join(lines) + "\n"


def write_model(model: GraphicalModel) -> str:
    return write_uai(model) if model.task is Task.MAP else write_wcsp(model)


# -- result records ----------------------------------------------------------


def result_record(
    path: str,
    result: SolverResult | None,
    engine: str,
    redundancy_per_factor=None,
    error: str | None = None,
    extra=None,
    timings: bool = False,
    ordering_s: float | None = None,
) -> dict:
    """Flat record for one instance run, deterministic unless ``timings``
    adds ``wall_time_s`` and, when given, ``ordering_s``: the time the
    ordering took, which ``wall_time_s`` does not count."""
    rec = {"file": str(path), "engine": engine}
    if error is not None:
        rec["status"] = "error"
        rec["error"] = error
        return rec
    rec["task"] = result.task.name
    rec["status"] = result.status
    rec["optimum"] = None if result.status == "infeasible" else result.optimum
    if result.task is Task.MAP:
        # -log of the optimum, finite where the optimum underflows to 0.0
        cost = result.cost
        rec["cost"] = None if cost is None or math.isinf(cost) else cost
    rec["assignment"] = None if result.assignment is None else list(result.assignment)
    stats = {
        "induced_width": result.stats.induced_width,
        "buckets_processed": result.stats.buckets_processed,
        "messages": result.stats.messages,
        "max_entry_count": result.stats.max_entry_count,
        "max_automaton_states": result.stats.max_automaton_states,
        "peak_live_states": result.stats.peak_live_states,
    }
    peak_cells = getattr(result.stats, "peak_table_cells", None)
    if peak_cells is not None:
        stats["peak_table_cells"] = peak_cells
    growth = result.stats.growth_average
    stats["determinization_growth_avg"] = growth
    stats["determinization_samples"] = len(result.stats.growth_samples)
    if redundancy_per_factor is not None:
        stats["redundancy_per_factor"] = [round(r, 12) for r in redundancy_per_factor]
        stats["redundancy_mean"] = (
            round(sum(redundancy_per_factor) / len(redundancy_per_factor), 12)
            if redundancy_per_factor
            else None
        )
    if timings:
        stats["wall_time_s"] = result.stats.wall_time
        if ordering_s is not None:
            stats["ordering_s"] = ordering_s
    rec["stats"] = stats
    if extra:
        rec.update(extra)
    return rec


def write_result(result: SolverResult, fmt: str = "human", path: str = "-", engine: str = "dafsa", **kw) -> str:
    """One-call record emission for library users; CLI builds records itself."""
    rec = result_record(path, result, engine, **kw)
    if fmt == "json-lines":
        return record_to_json(rec) + "\n"
    return record_to_human(rec)


def record_to_json(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, allow_nan=False)


def record_to_human(rec: dict) -> str:
    lines = [f"instance: {rec['file']}"]
    if rec.get("error"):
        lines.append(f"  error: {rec['error']}")
        return "\n".join(lines) + "\n"
    lines.append(f"  engine: {rec['engine']}")
    if "task" in rec:
        lines.append(f"  task: {rec['task']}")
    lines.append(f"  status: {rec['status']}")
    if rec.get("optimum") is not None:
        lines.append(f"  optimum: {_format_value(rec['optimum'])}")
    if rec.get("cost") is not None:
        lines.append(f"  cost: {_format_value(rec['cost'])}")
    if rec.get("assignment") is not None:
        lines.append("  assignment: " + " ".join(map(str, rec["assignment"])))
    for key, val in sorted(rec.get("stats", {}).items()):
        lines.append(f"  {key}: {val}")
    return "\n".join(lines) + "\n"
