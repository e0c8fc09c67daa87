import json
import subprocess
import sys

import pytest

from dafbe import cli
from dafbe.model import SolverResult, SolveStats, Task

from conftest import fixture_path

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

    @pytest.mark.parametrize("value", ["abc", "-1", "0"])
    def test_epsilon_env_invalid(self, capsys, monkeypatch, value):
        monkeypatch.setenv(cli.EPS_ENV_VAR, value)
        code, _, err = run(capsys, "solve", HAND)
        assert code == 1 and cli.EPS_ENV_VAR in err

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

    def test_unparsable_instance_flagged(self, capsys, tmp_path):
        bad = tmp_path / "bad.wcsp"
        bad.write_text("nope", encoding="ascii")
        code, out, _ = run(capsys, "stats", str(bad), HAND)
        assert code == 1
        doc = json.loads(out)
        assert "error" in doc["instances"][0]
        assert doc["aggregate"]["instances"] == 1
