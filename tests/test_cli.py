import itertools
import json
import random
import subprocess
import sys

import numpy as np
import pytest

from dafbe import cli
from dafbe import factor as factor_mod
from dafbe.factor import TabularFactor
from dafbe.formats import parse_path, write_wcsp
from dafbe.model import GraphicalModel, SolverResult, SolveStats, Task, induced_width, min_fill_ordering
from dafbe.oracle import tabular_be

from conftest import dense_models, fixture_path

HAND = fixture_path("hand.wcsp")
QUEENS = fixture_path("queens4.wcsp")
ASYM = fixture_path("asym.uai")
BAYES = fixture_path("bayes.uai")


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def json_records(out):
    return [json.loads(line) for line in out.splitlines()]


def mixed_domain_model(rng):
    """A WCSP on 8 variables, domains drawn from {2, 3, 5}, with 12 binary
    tables of costs 0-3."""
    domains = tuple(rng.choice((2, 3, 5)) for _ in range(8))
    factors = []
    for a, b in sorted(rng.sample(list(itertools.combinations(range(8), 2)), 12)):
        dims = (domains[a], domains[b])
        costs = [float(rng.randrange(4)) for _ in range(dims[0] * dims[1])]
        factors.append(TabularFactor((a, b), dims, np.array(costs)))
    return GraphicalModel(8, domains, tuple(factors), Task.WCSP)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = run(capsys, "solve", HAND)
        assert code == 0 and err == ""
        assert "optimum: 1" in out and "assignment: 0 1 0" in out

    def test_no_inputs_is_usage_error(self, capsys):
        code, out, err = run(capsys, "solve")
        assert code == 1 and "no input files" in err

    def test_unknown_engine_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--engine", "psychic", HAND)
        assert code == 1 and "engine" in err

    def test_missing_file(self, capsys):
        code, out, _ = run(capsys, "solve", "--format", "json-lines", "/no/such/file.uai")
        assert code == 1
        (rec,) = json_records(out)
        assert rec["status"] == "error"

    def test_parse_error_reports_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.uai"
        bad.write_text("MARKOV\ntwo\n", encoding="ascii")
        code, out, _ = run(capsys, "solve", "--format", "json-lines", str(bad))
        assert code == 1
        (rec,) = json_records(out)
        assert rec["status"] == "error" and "line 2" in rec["error"]

    def test_non_ascii_byte_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.wcsp"
        bad.write_bytes(open(HAND, "rb").read() + "# caf\u00e9\n".encode("utf-8"))
        lines = bad.read_bytes().count(b"\n")
        code, out, _ = run(capsys, "solve", "--format", "json-lines", str(bad), HAND)
        assert code == 1
        recs = json_records(out)
        assert recs[0]["status"] == "error" and f"line {lines}:" in recs[0]["error"]
        assert recs[1]["status"] == "optimal" and recs[1]["optimum"] == 1.0
        code, out, _ = run(capsys, "stats", str(bad), HAND)
        assert code == 1
        doc = json.loads(out)
        assert f"line {lines}:" in doc["instances"][0]["error"]
        assert doc["aggregate"]["instances"] == 1

    def test_bad_instance_does_not_stop_the_rest(self, capsys, tmp_path):
        bad = tmp_path / "bad.uai"
        bad.write_text("garbage\n", encoding="ascii")
        code, out, _ = run(capsys, "solve", "--format", "json-lines", str(bad), HAND)
        assert code == 1
        recs = json_records(out)
        assert recs[0]["status"] == "error"
        assert recs[1]["status"] == "optimal" and recs[1]["optimum"] == 1.0

    def test_minus_inf_default_is_a_parse_error_of_its_file_only(self, capsys, tmp_path):
        # a -inf default that covers no cell is a parse error of its own file
        bad = tmp_path / "bad.wcsp"
        bad.write_text("t 1 2 1 10\n2\n1 0 -inf 2\n0 1\n1 2\n", encoding="ascii")
        code, out, err = run(capsys, "solve", "--format", "json-lines", str(bad), HAND)
        assert code == 1 and "internal error" not in err
        recs = json_records(out)
        assert recs[0]["status"] == "error" and recs[0]["error"] == "line 5: function 0 has a negative cost"
        assert recs[1]["status"] == "optimal" and recs[1]["optimum"] == 1.0

    def test_disagreement_exit_code(self, capsys, monkeypatch):
        # an oracle that always claims a better optimum than anyone else
        def liar(model, budget=None):
            return SolverResult(model.task, "optimal", -123.0, tuple([0] * model.n_vars),
                                tuple(range(model.n_vars)), SolveStats())

        monkeypatch.setattr(cli.oracle, "brute_force", liar)
        code, out, _ = run(capsys, "solve", "--engine", "check-all",
                           "--format", "json-lines", HAND)
        assert code == 2
        (rec,) = json_records(out)
        assert rec["status"] == "disagreement"
        assert any("brute" in line for line in rec["disagreement"])

    def test_tiny_map_optima_compare_relatively(self, capsys, monkeypatch, tmp_path):
        # optimum 2e-14: an oracle claiming ten times that is off by a
        # factor of ten, even though the two differ by less than 1e-12
        tiny = tmp_path / "tiny.uai"
        tiny.write_text("MARKOV\n1\n2\n1\n1 0\n\n2\n1e-14 2e-14\n", encoding="ascii")

        def liar(model, budget=None):
            return SolverResult(model.task, "optimal", 2e-13, (0,), (0,), SolveStats())

        monkeypatch.setattr(cli.oracle, "brute_force", liar)
        code, out, _ = run(capsys, "solve", "--engine", "check-all",
                           "--format", "json-lines", str(tiny))
        assert code == 2
        (rec,) = json_records(out)
        assert rec["status"] == "disagreement"
        assert rec["engines"]["dafsa"]["optimum"] == pytest.approx(2e-14, rel=1e-9)
        assert rec["engines"]["tabular"]["optimum"] == pytest.approx(2e-14, rel=1e-9)
        assert all(line.startswith("brute") for line in rec["disagreement"])

    def test_internal_error_exit_code(self, capsys, monkeypatch):
        def boom(*a, **kw):
            raise RuntimeError("kernel panic")

        monkeypatch.setattr(cli, "bucket_elimination", boom)
        code, _, err = run(capsys, "solve", HAND)
        assert code == 3 and "internal error" in err

    @pytest.mark.parametrize("owner, stage", [(cli.formats, "parse_path"), (cli, "bucket_elimination")],
                             ids=["parse", "solve"])
    def test_memory_error_ends_only_its_own_solve(self, capsys, monkeypatch, owner, stage):
        # running out of memory while parsing or solving is a budget
        # record, and the batch goes on
        run_stage = getattr(owner, stage)
        calls = []

        def first_runs_out(*a, **kw):
            calls.append(a)
            if len(calls) == 1:
                raise MemoryError()
            return run_stage(*a, **kw)

        monkeypatch.setattr(owner, stage, first_runs_out)
        code, out, _ = run(capsys, "solve", "--format", "json-lines", HAND, QUEENS)
        assert code == 0
        first, second = json_records(out)
        assert first["status"] == "budget-exceeded" and "memory" in first["error"]
        assert second["file"] == QUEENS and second["status"] == "optimal"
        # a human record names its engine and status, unlike a parse error's
        calls.clear()
        code, out, _ = run(capsys, "solve", HAND, QUEENS)
        assert code == 0
        first, second = out.split(f"instance: {QUEENS}\n")
        assert first == (f"instance: {HAND}\n  engine: dafsa\n  status: budget-exceeded\n"
                         "  error: ran out of memory\n")
        assert "  status: optimal\n" in second

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_memory_error_ends_only_its_own_stats_row(self, capsys, monkeypatch, fmt):
        # as in solve: a parse that runs out of memory is an error row of
        # its own input, the exit code stays 0 and the batch goes on
        parse_path = cli.formats.parse_path
        calls = []

        def first_runs_out(*a, **kw):
            calls.append(a)
            if len(calls) == 1:
                raise MemoryError()
            return parse_path(*a, **kw)

        monkeypatch.setattr(cli.formats, "parse_path", first_runs_out)
        code, out, err = run(capsys, "stats", "--format", fmt, HAND, QUEENS)
        assert code == 0 and err == ""
        _, want, _ = run(capsys, "stats", "--format", fmt, QUEENS)
        if fmt == "csv":
            lines = out.splitlines()
            assert lines[1] == f"{HAND},,,,,,,,,ran out of memory"
            assert [lines[0], *lines[2:]] == want.splitlines()
        else:
            doc = json.loads(out)
            assert doc["instances"][0] == {"file": HAND, "error": "ran out of memory"}
            assert {"instances": doc["instances"][1:], "aggregate": doc["aggregate"]} == json.loads(want)

    def test_huge_domain_no_function_reads_solves_at_once(self, tmp_path):
        # variable 1 has 2^31-1 values and no function: the forward pass
        # must not score each of them
        model = tmp_path / "big.wcsp"
        model.write_text("big 2 2147483647 1 10\n2 2147483647\n1 0 0 1\n1 5\n", encoding="ascii")
        cmd = [sys.executable, "-m", "dafbe.cli", "solve", "--time-limit", "1",
               "--format", "json-lines", str(model)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        assert proc.returncode == 0, proc.stderr
        (rec,) = json_records(proc.stdout)
        assert rec["status"] == "optimal" and rec["optimum"] == 0.0
        assert rec["assignment"] == [0, 0]


class TestEngines:
    @pytest.mark.parametrize("engine", ["dafsa", "tabular", "brute"])
    def test_each_engine_solves_hand(self, capsys, engine):
        code, out, _ = run(capsys, "solve", "--engine", engine,
                           "--format", "json-lines", HAND)
        assert code == 0
        (rec,) = json_records(out)
        assert rec["engine"] == engine
        assert rec["optimum"] == 1.0 and rec["assignment"] == [0, 1, 0]

    def test_tabular_reports_peak_cells(self, capsys):
        _, out, _ = run(capsys, "solve", "--engine", "tabular",
                        "--format", "json-lines", HAND)
        (rec,) = json_records(out)
        assert rec["stats"]["peak_table_cells"] >= 4

    def test_check_all_agreement(self, capsys):
        code, out, _ = run(capsys, "solve", "--engine", "check-all",
                           "--format", "json-lines", QUEENS, ASYM)
        assert code == 0
        for rec in json_records(out):
            assert rec["status"] == "optimal"
            engines = rec["engines"]
            assert set(engines) == {"dafsa", "tabular", "brute"}
            assert len({e["optimum"] for e in engines.values()}) == 1
            assert rec["engines_skipped"] == []

    def test_map_and_wcsp_instances(self, capsys):
        code, out, _ = run(capsys, "solve", "--format", "json-lines",
                           BAYES, QUEENS)
        assert code == 0
        recs = json_records(out)
        assert recs[0]["task"] == "MAP" and abs(recs[0]["optimum"] - 0.54) < 1e-12
        assert recs[1]["task"] == "WCSP" and recs[1]["optimum"] == 0.0


class TestDeterminism:
    def test_json_lines_reruns_are_identical(self, capsys):
        argv = ["solve", "--format", "json-lines", HAND, QUEENS, ASYM, BAYES]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second
        assert all("wall_time" not in line for line in first.splitlines())
        assert all("ordering_s" not in line for line in first.splitlines())

    def test_timings_flag_adds_wall_time(self, capsys):
        _, out, _ = run(capsys, "solve", "--format", "json-lines", "--timings", HAND)
        (rec,) = json_records(out)
        assert rec["stats"]["wall_time_s"] >= 0.0

    @pytest.mark.parametrize("ordering", ["min-fill", "weighted-min-fill"])
    def test_timings_flag_adds_ordering_time(self, capsys, ordering):
        argv = ["solve", "--format", "json-lines", "--ordering", ordering, HAND]
        _, out, _ = run(capsys, *argv)
        (untimed,) = json_records(out)
        assert "ordering_s" not in untimed["stats"]
        _, out, _ = run(capsys, *argv[:-1], "--timings", HAND)
        (timed,) = json_records(out)
        assert 0.0 <= timed["stats"]["ordering_s"] < 60.0
        del timed["stats"]["ordering_s"], timed["stats"]["wall_time_s"]
        assert timed == untimed

    def test_human_format_includes_wall_time(self, capsys):
        _, out, _ = run(capsys, "solve", HAND)
        assert "wall_time_s:" in out and "ordering_s:" in out

    def test_subprocess_byte_identity(self):
        cmd = [sys.executable, "-m", "dafbe.cli", "solve", "--format", "json-lines",
               HAND, QUEENS, ASYM, BAYES]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout and a.stdout


class TestOrderingAndConfig:
    def test_ordering_file(self, capsys, tmp_path):
        order = tmp_path / "order.txt"
        order.write_text("2 0 1\n", encoding="ascii")
        code, out, _ = run(capsys, "solve", "--ordering", "file",
                           "--ordering-file", str(order),
                           "--format", "json-lines", HAND)
        assert code == 0
        (rec,) = json_records(out)
        assert rec["optimum"] == 1.0

    def test_ordering_file_must_be_permutation(self, capsys, tmp_path):
        order = tmp_path / "order.txt"
        order.write_text("0 0 1\n", encoding="ascii")
        code, out, _ = run(capsys, "solve", "--ordering", "file",
                           "--ordering-file", str(order),
                           "--format", "json-lines", HAND)
        assert code == 1
        (rec,) = json_records(out)
        assert rec["status"] == "error"

    @pytest.mark.parametrize("command", ["solve", "stats"])
    @pytest.mark.parametrize("content, problem", [
        (None, "No such file"),
        ("2 zero 1\n", "invalid literal for int()"),
        ("0 0 1\n", "must be a permutation of 0..2"),
    ], ids=["missing", "non-integer", "non-permutation"])
    def test_bad_ordering_file_is_usage_error(self, capsys, tmp_path, command, content, problem):
        order = tmp_path / "order.txt"
        if content is not None:
            order.write_text(content, encoding="ascii")
        fmt = "json-lines" if command == "solve" else "json"
        code, out, err = run(capsys, command, "--ordering", "file", "--ordering-file", str(order),
                             "--format", fmt, HAND)
        assert code == 1 and "internal error" not in err
        (rec,) = json_records(out) if command == "solve" else json.loads(out)["instances"]
        assert rec["error"].startswith(f"ordering file {order}: ") and problem in rec["error"]
        if command == "solve":
            assert rec["status"] == "error"

    def test_ordering_file_requires_single_input(self, capsys, tmp_path):
        order = tmp_path / "order.txt"
        order.write_text("0 1 2\n", encoding="ascii")
        code, _, err = run(capsys, "solve", "--ordering", "file",
                           "--ordering-file", str(order), HAND, QUEENS)
        assert code == 1 and "single input" in err

    @pytest.mark.parametrize("command", ["solve", "stats"])
    def test_ordering_file_requires_ordering_file_mode(self, capsys, command):
        # the file is never opened: naming one without --ordering file
        # would otherwise solve along min-fill without a word
        code, out, err = run(capsys, command, "--ordering-file", "/nonexistent/x.txt", HAND)
        assert code == 1 and out == "" and "--ordering-file requires --ordering file" in err

    def test_weighted_ordering_accepted(self, capsys):
        code, out, _ = run(capsys, "solve", "--ordering", "weighted-min-fill",
                           "--format", "json-lines", QUEENS)
        assert code == 0
        (rec,) = json_records(out)
        assert rec["optimum"] == 0.0

    def test_weighted_ordering_differs_and_solves(self, capsys, tmp_path, monkeypatch, kernels):
        # every fixture but asym.uai has one domain size, where the two
        # orderings agree; this model mixes sizes 2, 3 and 5
        monkeypatch.setattr(factor_mod, "kernels", kernels)
        m = mixed_domain_model(random.Random(0))
        assert min_fill_ordering(m) != min_fill_ordering(m, weighted=True)
        path = tmp_path / "mixed.wcsp"
        path.write_text(write_wcsp(m), encoding="ascii")
        want = tabular_be(m).optimum
        for ordering in ("min-fill", "weighted-min-fill"):
            code, out, _ = run(capsys, "solve", "--engine", "check-all", "--ordering", ordering,
                               "--format", "json-lines", str(path))
            (rec,) = json_records(out)
            assert code == 0 and rec["status"] == "optimal" and rec["optimum"] == want, ordering
            # check-all certified every engine's assignment and found them agreed
            assert rec["engines_skipped"] == [] and "disagreement" not in rec

    @pytest.mark.parametrize("value", ["nan", "-1", "0"])
    def test_time_limit_not_positive_is_usage_error(self, capsys, value):
        # NaN compares false with every deadline, so it used to solve with no limit
        code, out, err = run(capsys, "solve", "--time-limit", value, HAND)
        assert code == 1 and out == "" and "time limit" in err

    def test_infinite_time_limit_solves(self, capsys):
        code, out, _ = run(capsys, "solve", "--time-limit", "inf", "--format", "json-lines", HAND)
        assert code == 0 and json_records(out)[0]["optimum"] == 1.0

    def test_epsilon_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.EPS_ENV_VAR, "1e-9")
        code, out, _ = run(capsys, "solve", "--format", "json-lines", HAND)
        assert code == 0 and json_records(out)[0]["optimum"] == 1.0

    @pytest.mark.parametrize("value", ["abc", "-1", "0", "inf"])
    def test_epsilon_env_invalid(self, capsys, monkeypatch, value):
        monkeypatch.setenv(cli.EPS_ENV_VAR, value)
        code, _, err = run(capsys, "solve", HAND)
        assert code == 1 and cli.EPS_ENV_VAR in err

    def test_infinite_epsilon_is_usage_error(self, capsys):
        # it used to pass the check and fail every file as an internal error
        for command in ("solve", "stats"):
            code, out, err = run(capsys, command, "--epsilon", "inf", HAND)
            assert code == 1 and out == "" and "epsilon must be finite" in err, (command, err)

    def test_epsilon_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.EPS_ENV_VAR, "not-a-number")
        code, _, _ = run(capsys, "solve", "--epsilon", "1e-10", HAND)
        assert code == 0

    def test_dialect_override(self, capsys, tmp_path):
        renamed = tmp_path / "hand.txt"
        renamed.write_text(open(HAND, encoding="ascii").read(), encoding="ascii")
        code, out, _ = run(capsys, "solve", "--dialect", "wcsp",
                           "--format", "json-lines", str(renamed))
        assert code == 0 and json_records(out)[0]["task"] == "WCSP"

    def test_prune_toggle(self, capsys):
        # infinite costs are always left out; there is no switch to set
        for flag in ("--prune-infinity", "--no-prune-infinity"):
            code, out, err = run(capsys, "solve", flag, "--format", "json-lines", QUEENS)
            assert code == 1 and out == "" and flag in err


class TestArgumentChecks:
    """The checks argparse cannot make, in their order: an invalid
    DAFBE_EPSILON first, then a missing input, the epsilon, solve's time
    limit and the --ordering-file couplings."""

    @pytest.mark.parametrize("env, argv, message", [
        (None, ["solve"], "no input files given"),
        ("abc", ["solve"], "DAFBE_EPSILON is not a number: 'abc'"),
        ("inf", ["solve", "--ordering", "file", HAND], "DAFBE_EPSILON must be finite and > 0"),
        (None, ["solve", "--epsilon", "inf", "--time-limit", "0", HAND], "epsilon must be finite and > 0"),
        (None, ["solve", "--epsilon", "nan", HAND], "epsilon must be finite and > 0"),
        (None, ["solve", "--epsilon", "-1", HAND], "epsilon must be finite and > 0"),
        (None, ["stats", "--epsilon", "nan", HAND], "epsilon must be finite and > 0"),
        (None, ["stats", "--epsilon", "-1", HAND], "epsilon must be finite and > 0"),
        (None, ["solve", "--time-limit", "0", "--ordering", "file", HAND], "time limit must be > 0"),
        (None, ["solve", "--ordering-file", "x", HAND], "--ordering-file requires --ordering file"),
        (None, ["stats", "--ordering-file", "x", HAND], "--ordering-file requires --ordering file"),
        (None, ["solve", "--ordering", "file", HAND], "--ordering file requires --ordering-file"),
        (None, ["stats", "--ordering", "file", HAND], "--ordering file requires --ordering-file"),
        (None, ["solve", "--ordering", "file", "--ordering-file", "x", HAND, QUEENS],
         "--ordering-file only works with a single input"),
        (None, ["stats", "--ordering", "file", "--ordering-file", "x", HAND, QUEENS],
         "--ordering-file only works with a single input"),
        (None, ["solve", "--engine", "psychic", HAND],
         "argument --engine: invalid choice: 'psychic' (choose from 'dafsa', 'tabular', 'brute', 'check-all')"),
        (None, ["stats"], "no input files given"),
        ("0", ["stats", HAND], "DAFBE_EPSILON must be finite and > 0"),
        (None, ["stats", "--time-limit", "5", HAND], "unrecognized arguments: --time-limit"),
    ])
    def test_usage_error(self, capsys, monkeypatch, env, argv, message):
        monkeypatch.delenv(cli.EPS_ENV_VAR, raising=False)
        if env is not None:
            monkeypatch.setenv(cli.EPS_ENV_VAR, env)
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


class TestStats:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "stats", HAND, QUEENS)
        assert code == 0
        doc = json.loads(out)
        assert doc["aggregate"]["instances"] == 2
        assert 0.0 <= doc["aggregate"]["redundancy_mean"] <= 1.0
        first = doc["instances"][0]
        assert first["n_vars"] == 3 and first["n_factors"] == 3
        assert first["induced_width"] >= 1
        assert len(first["redundancy_per_factor"]) == 3

    def test_map_redundancy_uses_the_solver_keys(self, capsys, tmp_path):
        # keyed on -log p, 1e-12 and 2e-12 are two values, as the solver
        # keeps them: 3 keys over 4 cells
        uai = tmp_path / "small.uai"
        uai.write_text("MARKOV\n1\n4\n1\n1 0\n\n4\n1e-12 2e-12 1e-12 0.5\n", encoding="ascii")
        _, out, _ = run(capsys, "stats", str(uai))
        assert json.loads(out)["instances"][0]["redundancy_per_factor"] == [0.25]
        _, out, _ = run(capsys, "solve", "--format", "json-lines", str(uai))
        assert json_records(out)[0]["stats"]["redundancy_per_factor"] == [0.25]

    def test_json_report_deterministic(self, capsys):
        _, a, _ = run(capsys, "stats", QUEENS)
        _, b, _ = run(capsys, "stats", QUEENS)
        assert a == b

    def test_csv_report(self, capsys):
        code, out, _ = run(capsys, "stats", "--format", "csv", HAND, QUEENS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("file,n_vars,")
        assert len(lines) == 4 and lines[-1].startswith("(aggregate)")

    @pytest.mark.parametrize("ordering, weighted", [("min-fill", False),
                                                     ("weighted-min-fill", True)])
    def test_width_is_min_fill_width(self, capsys, tmp_path, ordering, weighted):
        paths = []
        for trial, m in enumerate(itertools.islice(dense_models(), 6)):
            path = tmp_path / f"dense{trial}.wcsp"
            path.write_text(write_wcsp(m), encoding="ascii")
            paths.append(str(path))
        _, out, _ = run(capsys, "stats", "--ordering", ordering, *paths)
        rows = json.loads(out)["instances"]
        _, out, _ = run(capsys, "solve", "--ordering", ordering, "--format", "json-lines", *paths)
        for path, row, rec in zip(paths, rows, json_records(out)):
            m = parse_path(path)
            want = induced_width(m, min_fill_ordering(m, weighted))
            assert row["induced_width"] == rec["stats"]["induced_width"] == want, path

    def test_ordering_file_width_is_replayed(self, capsys, tmp_path):
        m = next(dense_models())
        path = tmp_path / "dense.wcsp"
        path.write_text(write_wcsp(m), encoding="ascii")
        ordering = tuple(range(m.n_vars))
        assert ordering != min_fill_ordering(m)
        order = tmp_path / "order.txt"
        order.write_text(" ".join(map(str, ordering)), encoding="ascii")
        want = induced_width(m, ordering)
        assert want != induced_width(m, min_fill_ordering(m))
        flags = ("--ordering", "file", "--ordering-file", str(order), str(path))
        _, out, _ = run(capsys, "stats", *flags)
        assert json.loads(out)["instances"][0]["induced_width"] == want
        _, out, _ = run(capsys, "solve", "--format", "json-lines", *flags)
        assert json_records(out)[0]["stats"]["induced_width"] == want

    def test_unparsable_instance_flagged(self, capsys, tmp_path):
        bad = tmp_path / "bad.wcsp"
        bad.write_text("nope", encoding="ascii")
        code, out, _ = run(capsys, "stats", str(bad), HAND)
        assert code == 1
        doc = json.loads(out)
        assert "error" in doc["instances"][0]
        assert doc["aggregate"]["instances"] == 1
