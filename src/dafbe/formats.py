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
from collections import Counter

from .errors import FormatError
from .model import GraphicalModel, SolverResult, Task
from .factor import SparseFactor, TabularFactor


class _Tokens:
    """Whitespace token stream that remembers the current line number."""

    def __init__(self, text):
        self.items = []  # (token, line)
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "#" in line:  # comment tails, seen in some wcsp corpora
                line = line.split("#", 1)[0]
            for tok in line.split():
                self.items.append((tok, lineno))
        self.pos = 0
        self.last_line = 1

    def next(self, what):
        if self.pos >= len(self.items):
            raise FormatError(f"unexpected end of file, expected {what}", self.last_line)
        tok, line = self.items[self.pos]
        self.pos += 1
        self.last_line = line
        return tok, line

    def next_int(self, what, minimum=None):
        tok, line = self.next(what)
        try:
            val = int(tok)
        except ValueError:
            raise FormatError(f"expected integer {what}, got {tok!r}", line) from None
        if minimum is not None and val < minimum:
            raise FormatError(f"{what} must be >= {minimum}, got {val}", line)
        return val

    def next_float(self, what):
        tok, line = self.next(what)
        try:
            # float() is locale-independent in Python: decimal point only
            val = float(tok)
        except ValueError:
            raise FormatError(f"expected number {what}, got {tok!r}", line) from None
        if math.isnan(val):
            raise FormatError(f"{what} is NaN", line)
        return val

    def expect_end(self):
        if self.pos < len(self.items):
            tok, line = self.items[self.pos]
            raise FormatError(f"trailing garbage starting at {tok!r}", line)


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
    kind, line = toks.next("header")
    if kind.upper() not in ("MARKOV", "BAYES"):
        raise FormatError(f"expected MARKOV or BAYES header, got {kind!r}", line)
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

    Each function stays a ``SparseFactor``: its default plus the
    exception tuples, built in file order and then ``renamed`` onto the
    sorted scope.  A tuple listed twice keeps its last cost.
    """
    toks = _Tokens(text)
    toks.next("problem name")
    n_vars = toks.next_int("variable count", minimum=0)
    toks.next_int("max domain size", minimum=0)
    n_funcs = toks.next_int("function count", minimum=0)
    upper = toks.next_float("global upper bound")
    domains = [toks.next_int(f"domain size of variable {i}", minimum=1) for i in range(n_vars)]
    factors = []
    for i in range(n_funcs):
        raw_scope = _read_scope(toks, n_vars, i)
        default = toks.next_float(f"default cost of function {i}")
        n_exc = toks.next_int(f"exception count of function {i}", minimum=0)
        exceptions = {}
        for e in range(n_exc):
            word = []
            for j, v in enumerate(raw_scope):
                val = toks.next_int(f"tuple value {j} of exception {e} of function {i}")
                if not 0 <= val < domains[v]:
                    raise FormatError(
                        f"exception {e} of function {i}: value {val} outside domain "
                        f"of variable {v}",
                        toks.last_line,
                    )
                word.append(val)
            cost = toks.next_float(f"cost of exception {e} of function {i}")
            exceptions[tuple(word)] = cost
        dims = tuple(domains[v] for v in raw_scope)
        resolved = list(exceptions.values())
        if len(exceptions) < math.prod(dims):
            resolved.append(default)
        if any(c < 0 for c in resolved):
            raise FormatError(f"function {i} has a negative cost", toks.last_line)
        capped = {word: _cap(c, upper) for word, c in exceptions.items()}
        factors.append(SparseFactor(tuple(range(len(dims))), dims, _cap(default, upper), capped)
                       .renamed(raw_scope))
    toks.expect_end()
    return GraphicalModel(n_vars, tuple(domains), tuple(factors), Task.WCSP)


def _cap(cost, upper):
    return math.inf if cost >= upper else cost


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
    cell is an exception, in lexicographic order.  Value counts come from
    the factor's cells, so a sparse factor is densified only when one of
    its exception values outnumbers its default.
    """
    if model.task is not Task.WCSP:
        raise FormatError("write_wcsp needs a WCSP model")
    import numpy as np

    finite_max = 0.0
    for f in model.factors:
        present = np.asarray(f.present_values(), dtype=np.float64)
        finite = present[np.isfinite(present)]
        if len(finite):
            finite_max = max(finite_max, float(finite.max()))
    upper = math.floor(finite_max) + 1

    def fmt(v):
        return _format_value(upper if math.isinf(v) else v)

    max_dom = max(model.domains, default=0)
    lines = [
        " ".join([name, str(model.n_vars), str(max_dom), str(len(model.factors)), _format_value(upper)]),
        " ".join(map(str, model.domains)),
    ]
    for f in model.factors:
        digits, values, default = f.cells()
        values = np.asarray(values, dtype=np.float64)
        counts = Counter(values.tolist())
        if default is not None:
            counts[default] += f.size - len(values)
        chosen = min(counts, key=lambda v: (-counts[v], v))
        if default is not None and chosen != default:
            digits, values, _ = f.to_table().cells()
        exceptions = np.nonzero(values != chosen)[0]
        lines.append(
            " ".join(
                [str(len(f.scope))]
                + [str(v) for v in f.scope]
                + [fmt(chosen), str(len(exceptions))]
            )
        )
        for idx in exceptions:
            lines.append(" ".join([*map(str, digits[idx]), fmt(values[idx])]))
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
