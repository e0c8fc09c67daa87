"""Command-line interface: solve instances, cross-check engines, emit stats.

Exit codes: 0 success, 1 usage or parse error, 2 engine disagreement,
3 internal error.  Timeouts, oracle budget refusals and a parse or solve
that runs out of memory are reported in the input's record or ``stats``
row and do not affect the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time

from . import formats, oracle
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


class UsageError(DafbeError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _checked(args):
    """``args`` after the checks argparse cannot make, ``epsilon`` read
    from the environment when the flag is absent."""
    if args.epsilon is None:
        raw = os.environ.get(EPS_ENV_VAR, DEFAULT_EPS)
        try:
            args.epsilon = float(raw)
        except ValueError:
            raise UsageError(f"{EPS_ENV_VAR} is not a number: {raw!r}") from None
        if not 0 < args.epsilon < math.inf:
            raise UsageError(f"{EPS_ENV_VAR} must be finite and > 0")
    if not args.inputs:
        raise UsageError("no input files given")
    if not 0 < args.epsilon < math.inf:  # NaN too
        raise UsageError("epsilon must be finite and > 0")
    if args.command == "solve" and not args.time_limit > 0:  # NaN too; inf means no limit
        raise UsageError("time limit must be > 0")
    if args.ordering == "file" and not args.ordering_file:
        raise UsageError("--ordering file requires --ordering-file")
    if args.ordering_file and args.ordering != "file":
        raise UsageError("--ordering-file requires --ordering file")
    if args.ordering_file and len(args.inputs) != 1:
        raise UsageError("--ordering-file only works with a single input")
    return args


def _ordering_for(model: GraphicalModel, args):
    """(elimination ordering, its induced width).  Min-fill finds the width
    as it orders; a file's ordering has it replayed.  An unreadable
    ordering file, a token that is not an integer or a non-permutation is
    a UsageError."""
    if args.ordering == "file":
        try:
            with open(args.ordering_file, "r", encoding="ascii") as fh:
                order = [int(tok) for tok in fh.read().split()]
            order = check_ordering(model, order)
        except (OSError, ValueError, ModelError) as exc:
            raise UsageError(f"ordering file {args.ordering_file}: {exc}") from None
        return order, induced_width(model, order)
    return min_fill_ordering(model, weighted=args.ordering == "weighted-min-fill",
                             with_width=True)


def _costs_agree(task: Task, a: float | None, b: float | None) -> bool:
    """Equal least costs: within 1e-6 on -log p for MAP, that is, 1e-6
    relative on the probability, and within 1e-9 for WCSP.  A missing
    cost agrees with nothing."""
    if a is None or b is None:
        return False
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= (1e-6 if task is Task.MAP else 1e-9)


def _certify(model: GraphicalModel, result) -> bool:
    """Does the assignment reproduce the least cost?  Compared in cost
    space: a MAP optimum below the smallest double is 0.0, and every
    assignment would match it as a product."""
    if result.status != "optimal":
        return True
    cost = sum(f.value_of(result.assignment) for f in model.cost_factors())
    return result.cost is not None and math.isclose(cost, result.cost, rel_tol=1e-9, abs_tol=1e-9)


# engine name -> call; globals are looked up per call, so patches reach them
_RUNS = {
    "dafsa": lambda model, ordering, width, args: bucket_elimination(
        model, ordering, eps=args.epsilon, time_limit=args.time_limit, width=width),
    "tabular": lambda model, ordering, width, args: oracle.tabular_be(
        model, ordering, time_limit=args.time_limit),
    "brute": lambda model, ordering, width, args: oracle.brute_force(model),
}


def _prepare(path, args):
    """(model, ordering, width, ordering_s, redundancy per cost factor) of
    one input: parsed, ordered and measured, as both commands report it."""
    model = formats.parse_path(path, args.dialect)
    t0 = time.perf_counter()
    ordering, width = _ordering_for(model, args)  # excluded from wall_time_s
    ordering_s = time.perf_counter() - t0
    return model, ordering, width, ordering_s, [f.redundancy(args.epsilon) for f in model.cost_factors()]


def _solve_one(model: GraphicalModel, ordering, width, args):
    """Returns (record-extra dict, result or None, disagreement flag)."""
    if args.engine != "check-all":
        return {}, _RUNS[args.engine](model, ordering, width, args), False

    # check-all: run every engine that fits its budget and compare
    results = {"dafsa": _RUNS["dafsa"](model, ordering, width, args)}
    skipped = []
    for name in ("tabular", "brute"):
        try:
            results[name] = _RUNS[name](model, ordering, width, args)
        except BudgetExceeded:
            skipped.append(name)

    base = results["dafsa"]
    disagree = []
    for name, res in results.items():
        if res.status != base.status:
            disagree.append(f"{name}: status {res.status} != {base.status}")
        elif not _costs_agree(model.task, res.cost, base.cost):
            disagree.append(f"{name}: cost {res.cost!r} != {base.cost!r}")
        if not _certify(model, res):
            disagree.append(f"{name}: assignment does not reproduce its cost")
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


def cmd_solve(args, out) -> int:
    worst = 0
    for path in args.inputs:
        try:
            model, ordering, width, ordering_s, red = _prepare(path, args)
            extra, result, disagree = _solve_one(model, ordering, width, args)
            rec = formats.result_record(
                path, result, args.engine, redundancy_per_factor=red,
                extra=extra, timings=args.timings or args.fmt == "human",
                ordering_s=ordering_s,
            )
            if disagree:
                rec["status"] = "disagreement"
                worst = max(worst, 2)
        except TimeLimit:
            rec = {"file": str(path), "engine": args.engine, "status": "timeout"}
        except BudgetExceeded as exc:
            rec = {"file": str(path), "engine": args.engine, "status": "budget-exceeded",
                   "error": str(exc)}
        except MemoryError:
            rec = {"file": str(path), "engine": args.engine, "status": "budget-exceeded",
                   "error": "ran out of memory"}
        except (DafbeError, OSError) as exc:
            rec = formats.result_record(path, None, args.engine, error=str(exc))
            worst = max(worst, 1)
        if args.fmt == "json-lines":
            out.write(formats.record_to_json(rec) + "\n")
        else:
            out.write(formats.record_to_human(rec))
    return worst


def cmd_stats(args, out) -> int:
    worst = 0
    rows = []
    for path in args.inputs:
        try:
            model, _, width, _, red = _prepare(path, args)
        except MemoryError:
            rows.append({"file": str(path), "error": "ran out of memory"})
            continue
        except (FormatError, UsageError, OSError) as exc:
            rows.append({"file": str(path), "error": str(exc)})
            worst = max(worst, 1)
            continue
        arities = [len(f.scope) for f in model.factors]
        rows.append({
            "file": str(path),
            "n_vars": model.n_vars,
            "n_factors": len(model.factors),
            "max_domain": max(model.domains, default=0),
            "arity_min": min(arities, default=0),
            "arity_max": max(arities, default=0),
            "arity_mean": round(sum(arities) / len(arities), 6) if arities else None,
            "induced_width": width,
            **formats.redundancy_fields(red),
        })
    ok_rows = [r for r in rows if "error" not in r]
    reds = [r["redundancy_mean"] for r in ok_rows if r["redundancy_mean"] is not None]
    aggregate = {
        "instances": len(ok_rows),
        "redundancy_mean": formats.redundancy_fields(reds)["redundancy_mean"],
        "induced_width_max": max((r["induced_width"] for r in ok_rows), default=0),
    }
    if args.fmt == "csv":
        fields = ["file", "n_vars", "n_factors", "max_domain", "arity_min", "arity_max",
                  "arity_mean", "induced_width", "redundancy_mean", "error"]
        writer = csv.DictWriter(out, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        writer.writerow({"file": "(aggregate)", "redundancy_mean": aggregate["redundancy_mean"],
                         "induced_width": aggregate["induced_width_max"]})
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
    solve.add_argument("--engine", choices=(*_RUNS, "check-all"), default="dafsa")
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
        args = _checked(_parser.parse_args(argv))
        if args.command == "stats":
            return cmd_stats(args, sys.stdout)
        return cmd_solve(args, sys.stdout)
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
