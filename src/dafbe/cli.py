"""Command-line interface: solve instances, cross-check engines, emit stats.

Exit codes: 0 success, 1 usage or parse error, 2 engine disagreement,
3 internal error.  Timeouts and oracle budget refusals are reported in
the per-instance record and do not affect the exit code.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time

from . import formats, oracle
from ._backend import BACKEND
from .errors import BudgetExceeded, DafbeError, FormatError, ModelError, TimeLimit
from .keying import DEFAULT_EPS
from .model import (
    GraphicalModel,
    Task,
    bucket_elimination,
    check_ordering,
    induced_width,
    min_fill_ordering,
)

EPS_ENV_VAR = "DAFBE_EPSILON"
ENGINES = ("dafsa", "tabular", "brute", "check-all")


class UsageError(DafbeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclasses.dataclass
class RunConfig:
    inputs: list
    dialect: str = "auto"  # auto (by extension) | uai | wcsp
    eps: float = DEFAULT_EPS
    ordering: str = "min-fill"  # min-fill | weighted-min-fill | file
    ordering_file: str | None = None
    time_limit: float = 7200.0
    engine: str = "dafsa"
    fmt: str = "human"  # human | json-lines
    timings: bool = False

    def __post_init__(self):
        if not self.inputs:
            raise UsageError("no input files given")
        if self.engine not in ENGINES:
            raise UsageError(f"engine must be one of {ENGINES}")
        if not self.eps > 0:
            raise UsageError("epsilon must be > 0")
        if not self.time_limit > 0:  # NaN too; inf means no limit
            raise UsageError("time limit must be > 0")
        if self.ordering == "file" and not self.ordering_file:
            raise UsageError("--ordering file requires --ordering-file")
        if self.ordering_file and self.ordering != "file":
            raise UsageError("--ordering-file requires --ordering file")
        if self.ordering_file and len(self.inputs) != 1:
            raise UsageError("--ordering-file only works with a single input")


def _default_eps():
    raw = os.environ.get(EPS_ENV_VAR)
    if raw is None:
        return DEFAULT_EPS
    try:
        val = float(raw)
    except ValueError:
        raise UsageError(f"{EPS_ENV_VAR} is not a number: {raw!r}") from None
    if not val > 0:
        raise UsageError(f"{EPS_ENV_VAR} must be > 0")
    return val


def _ordering_for(model: GraphicalModel, cfg: RunConfig):
    """The elimination ordering; an unreadable ordering file, a token that
    is not an integer or a non-permutation is a UsageError."""
    if cfg.ordering == "file":
        try:
            with open(cfg.ordering_file, "r", encoding="ascii") as fh:
                order = [int(tok) for tok in fh.read().split()]
            return check_ordering(model, order)
        except (OSError, ValueError, ModelError) as exc:
            raise UsageError(f"ordering file {cfg.ordering_file}: {exc}") from None
    return min_fill_ordering(model, weighted=cfg.ordering == "weighted-min-fill")


def _tolerance_ok(task: Task, a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    if task is Task.MAP:
        return math.isclose(a, b, rel_tol=1e-6)
    return abs(a - b) <= 1e-9


def _certify(model: GraphicalModel, result) -> bool:
    """Does the assignment reproduce the optimum?  Compared in cost space
    when the engine reports a cost: a MAP optimum below the smallest
    double is 0.0, and every assignment would match it as a product."""
    if result.status != "optimal":
        return True
    if result.cost is not None:
        cost = sum(f.value_of(result.assignment) for f in model.cost_factors())
        return math.isclose(cost, result.cost, rel_tol=1e-9, abs_tol=1e-9)
    return _tolerance_ok(model.task, model.evaluate(result.assignment), result.optimum)


def _solve_one(model: GraphicalModel, ordering, cfg: RunConfig):
    """Returns (record-extra dict, result or None, disagreement flag)."""
    if cfg.engine == "dafsa":
        result = bucket_elimination(model, ordering, eps=cfg.eps, time_limit=cfg.time_limit)
        return {}, result, False
    if cfg.engine == "tabular":
        result = oracle.tabular_be(model, ordering, time_limit=cfg.time_limit)
        return {}, result, False
    if cfg.engine == "brute":
        result = oracle.brute_force(model)
        return {}, result, False

    # check-all: run every engine that fits its budget and compare
    results = {}
    results["dafsa"] = bucket_elimination(model, ordering, eps=cfg.eps, time_limit=cfg.time_limit)
    skipped = []
    try:
        results["tabular"] = oracle.tabular_be(model, ordering, time_limit=cfg.time_limit)
    except BudgetExceeded:
        skipped.append("tabular")
    try:
        results["brute"] = oracle.brute_force(model)
    except BudgetExceeded:
        skipped.append("brute")

    base = results["dafsa"]
    disagree = []
    for name, res in results.items():
        if res.status != base.status:
            disagree.append(f"{name}: status {res.status} != {base.status}")
        elif res.status == "optimal" and not _tolerance_ok(model.task, res.optimum, base.optimum):
            disagree.append(f"{name}: optimum {res.optimum!r} != {base.optimum!r}")
        if not _certify(model, res):
            disagree.append(f"{name}: assignment does not reproduce its optimum")
    extra = {
        "engines": {
            name: {"status": r.status, "optimum": None if r.status != "optimal" else r.optimum}
            for name, r in sorted(results.items())
        },
        "engines_skipped": skipped,
    }
    if disagree:
        extra["disagreement"] = disagree
    return extra, base, bool(disagree)


def cmd_solve(cfg: RunConfig, out) -> int:
    worst = 0
    for path in cfg.inputs:
        rec = None
        try:
            model = formats.parse_path(path, cfg.dialect)
        except (FormatError, OSError) as exc:
            rec = formats.result_record(path, None, cfg.engine, error=str(exc))
            worst = max(worst, 1)
        if rec is None:
            try:
                t0 = time.perf_counter()
                ordering = _ordering_for(model, cfg)  # excluded from wall_time_s
                ordering_s = time.perf_counter() - t0
                red = [f.redundancy(cfg.eps) for f in model.cost_factors()]
                extra, result, disagree = _solve_one(model, ordering, cfg)
                rec = formats.result_record(
                    path, result, cfg.engine, redundancy_per_factor=red,
                    extra=extra, timings=cfg.timings or cfg.fmt == "human",
                    ordering_s=ordering_s,
                )
                if disagree:
                    rec["status"] = "disagreement"
                    worst = max(worst, 2)
            except TimeLimit:
                rec = {"file": str(path), "engine": cfg.engine, "status": "timeout"}
            except BudgetExceeded as exc:
                rec = {"file": str(path), "engine": cfg.engine, "status": "budget-exceeded",
                       "error": str(exc)}
            except DafbeError as exc:
                rec = formats.result_record(path, None, cfg.engine, error=str(exc))
                worst = max(worst, 1)
        if cfg.fmt == "json-lines":
            out.write(formats.record_to_json(rec) + "\n")
        else:
            out.write(formats.record_to_human(rec))
    return worst


def cmd_stats(cfg: RunConfig, out, csv_fmt: bool) -> int:
    worst = 0
    rows = []
    for path in cfg.inputs:
        try:
            model = formats.parse_path(path, cfg.dialect)
            ordering = _ordering_for(model, cfg)
        except (FormatError, UsageError, OSError) as exc:
            rows.append({"file": str(path), "error": str(exc)})
            worst = max(worst, 1)
            continue
        red = [f.redundancy(cfg.eps) for f in model.cost_factors()]
        arities = [len(f.scope) for f in model.factors]
        rows.append({
            "file": str(path),
            "n_vars": model.n_vars,
            "n_factors": len(model.factors),
            "max_domain": max(model.domains, default=0),
            "arity_min": min(arities, default=0),
            "arity_max": max(arities, default=0),
            "arity_mean": round(sum(arities) / len(arities), 6) if arities else None,
            "induced_width": induced_width(model, ordering),
            "redundancy_per_factor": [round(r, 12) for r in red],
            "redundancy_mean": round(sum(red) / len(red), 12) if red else None,
        })
    ok_rows = [r for r in rows if "error" not in r]
    reds = [r["redundancy_mean"] for r in ok_rows if r["redundancy_mean"] is not None]
    aggregate = {
        "instances": len(ok_rows),
        "redundancy_mean": round(sum(reds) / len(reds), 12) if reds else None,
        "induced_width_max": max((r["induced_width"] for r in ok_rows), default=0),
    }
    if csv_fmt:
        buf = io.StringIO()
        fields = ["file", "n_vars", "n_factors", "max_domain", "arity_min", "arity_max",
                  "arity_mean", "induced_width", "redundancy_mean", "error"]
        writer = csv.DictWriter(buf, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        for r in rows:
            writer.writerow(r)
        writer.writerow({"file": "(aggregate)", "redundancy_mean": aggregate["redundancy_mean"],
                         "induced_width": aggregate["induced_width_max"]})
        out.write(buf.getvalue())
    else:
        out.write(json.dumps({"instances": rows, "aggregate": aggregate},
                             sort_keys=True, allow_nan=False) + "\n")
    return worst


def build_parser() -> _Parser:
    parser = _Parser(prog="dafbe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("inputs", nargs="*", help="instance files (.uai or .wcsp)")
        p.add_argument("--dialect", choices=("auto", "uai", "wcsp"), default="auto",
                       help="input format; auto picks .wcsp by extension, UAI otherwise")
        p.add_argument("--epsilon", type=float, default=None,
                       help=f"value-keying tolerance, absolute on costs: for MAP, on -log p, "
                            f"so relative on probabilities (default {DEFAULT_EPS}, "
                            f"env {EPS_ENV_VAR})")
        p.add_argument("--ordering", choices=("min-fill", "weighted-min-fill", "file"),
                       default="min-fill")
        p.add_argument("--ordering-file", default=None,
                       help="whitespace-separated variable ids (with --ordering file)")

    solve = sub.add_parser("solve", help="solve instances with the chosen engine")
    add_common(solve)
    solve.add_argument("--engine", choices=ENGINES, default="dafsa")
    solve.add_argument("--time-limit", type=float, default=7200.0, help="seconds per instance")
    solve.add_argument("--format", dest="fmt", choices=("human", "json-lines"), default="human")
    solve.add_argument("--timings", action="store_true",
                       help="include wall and ordering time in json-lines records "
                            "(breaks byte determinism)")

    stats = sub.add_parser("stats", help="redundancy / width / arity report")
    add_common(stats)
    stats.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    return parser


_parser = None  # built on the first main call, then reused


def main(argv=None) -> int:
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
        eps = args.epsilon if args.epsilon is not None else _default_eps()
        cfg = RunConfig(
            inputs=list(args.inputs),
            dialect=args.dialect,
            eps=eps,
            ordering=args.ordering,
            ordering_file=args.ordering_file,
            time_limit=getattr(args, "time_limit", 7200.0),
            engine=getattr(args, "engine", "dafsa"),
            fmt=getattr(args, "fmt", "human"),
            timings=getattr(args, "timings", False),
        )
        if args.command == "stats":
            return cmd_stats(cfg, sys.stdout, csv_fmt=args.fmt == "csv")
        return cmd_solve(cfg, sys.stdout)
    except (UsageError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0
    except DafbeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort exit code mapping
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
