import json
import math

import numpy as np
import pytest

from dafbe.errors import FormatError
from dafbe.formats import (
    parse_path,
    parse_uai,
    parse_wcsp,
    record_to_human,
    record_to_json,
    result_record,
    write_model,
    write_result,
    write_uai,
    write_wcsp,
)
from dafbe.model import Task, bucket_elimination
from dafbe.oracle import brute_force

from conftest import fixture_path


def load(name):
    with open(fixture_path(name), encoding="ascii") as fh:
        return fh.read()


class TestParseUai:
    def test_unsorted_scope_is_transposed(self):
        # file declares the scope as "1 0"; the model must expose (0, 1)
        # with cells permuted to match
        m = parse_path(fixture_path("asym.uai"))
        assert m.task is Task.MAP
        assert m.n_vars == 2 and m.domains == (2, 3)
        (f,) = m.factors
        assert f.scope == (0, 1) and f.domains == (2, 3)
        assert m.evaluate((0, 1)) == 3.0
        assert m.evaluate((1, 0)) == 2.0

    def test_asym_optimum(self):
        m = parse_path(fixture_path("asym.uai"))
        res = brute_force(m)
        assert res.optimum == 6.0 and res.assignment == (1, 2)

    def test_bayes_header_accepted(self):
        m = parse_uai(load("bayes.uai"))
        assert m.n_vars == 2 and len(m.factors) == 2
        res = brute_force(m)
        assert math.isclose(res.optimum, 0.54, rel_tol=1e-12)
        assert res.assignment == (0, 0)

    def test_bad_header(self):
        with pytest.raises(FormatError, match="line 1.*MARKOV or BAYES"):
            parse_uai("SHANNON\n1\n2\n0\n")

    def test_non_integer_count(self):
        with pytest.raises(FormatError, match="line 2.*expected integer"):
            parse_uai("MARKOV\ntwo\n")

    def test_scope_variable_out_of_range(self):
        err = pytest.raises(FormatError, match="references variable 5")
        with err:
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 5\n4\n1 1 1 1\n")

    def test_repeated_scope_variable(self):
        with pytest.raises(FormatError, match="repeats a variable"):
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 0\n4\n1 1 1 1\n")

    def test_table_size_mismatch(self):
        with pytest.raises(FormatError, match="declares 3 values, scope needs 4"):
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 1\n3\n1 1 1\n")

    def test_truncated_file(self):
        with pytest.raises(FormatError, match="unexpected end of file"):
            parse_uai("MARKOV\n2\n2 2\n1\n2 0 1\n4\n1 1\n")

    def test_trailing_garbage(self):
        with pytest.raises(FormatError, match="line 7.*trailing garbage.*'9'"):
            parse_uai("MARKOV\n1\n2\n1\n1 0\n2\n1 1 9\n")

    def test_rejects_negative_and_infinite_values(self):
        base = "MARKOV\n1\n2\n1\n1 0\n2\n{}\n"
        with pytest.raises(FormatError, match="finite nonnegative"):
            parse_uai(base.format("1 -0.5"))
        with pytest.raises(FormatError, match="finite nonnegative"):
            parse_uai(base.format("1 inf"))

    def test_rejects_nan(self):
        with pytest.raises(FormatError, match="is NaN"):
            parse_uai("MARKOV\n1\n2\n1\n1 0\n2\n1 nan\n")


class TestParseWcsp:
    def test_hand_instance(self):
        m = parse_wcsp(load("hand.wcsp"))
        assert m.task is Task.WCSP
        assert m.n_vars == 3 and m.domains == (2, 2, 2)
        assert tuple(f.scope for f in m.factors) == ((0, 1), (2,), (1, 2))
        # all costs sit below the bound of 7, nothing becomes inf
        assert all(np.isfinite(f.values).all() for f in m.factors)
        assert m.evaluate((0, 1, 0)) == 1.0
        res = brute_force(m)
        assert res.optimum == 1.0 and res.assignment == (0, 1, 0)

    def test_costs_at_bound_become_inf(self):
        m = parse_path(fixture_path("queens4.wcsp"))
        assert any(np.isinf(f.values).any() for f in m.factors)
        assert all(not np.isneginf(f.values).any() for f in m.factors)
        res = bucket_elimination(m)
        assert res.status == "optimal" and res.optimum == 0.0
        assert m.evaluate(res.assignment) == 0.0
        assert brute_force(m).assignment == (1, 3, 0, 2)

    def test_bound_mapping_is_at_or_above(self):
        text = "t 1 3 1 10\n3\n1 0 0 3\n0 9.5\n1 10\n2 12\n"
        (f,) = parse_wcsp(text).factors
        assert list(f.values) == [9.5, math.inf, math.inf]

    def test_comment_tails_ignored(self):
        text = "t 1 2 1 10 # name and counts\n2\n1 0 1 1\n0 3 # one exception\n"
        (f,) = parse_wcsp(text).factors
        assert list(f.values) == [3.0, 1.0]

    def test_negative_cost(self):
        with pytest.raises(FormatError, match="negative cost"):
            parse_wcsp("t 1 2 1 10\n2\n1 0 0 1\n0 -2\n")

    def test_exception_value_outside_domain(self):
        with pytest.raises(FormatError, match="line 4.*value 2 outside domain"):
            parse_wcsp("t 1 2 1 10\n2\n1 0 0 1\n2 5\n")

    def test_scope_out_of_range(self):
        with pytest.raises(FormatError, match="references variable 3"):
            parse_wcsp("t 2 2 1 10\n2 2\n2 0 3 0 0\n")

    def test_truncated(self):
        with pytest.raises(FormatError, match="unexpected end of file"):
            parse_wcsp("t 1 2 1 10\n2\n1 0 0 2\n0 5\n")


class TestWriters:
    @pytest.mark.parametrize("name", ["asym.uai", "bayes.uai"])
    def test_uai_roundtrip_fixpoint(self, name):
        m1 = parse_uai(load(name))
        text = write_uai(m1)
        m2 = parse_uai(text)
        assert m2.domains == m1.domains
        for a, b in zip(m1.factors, m2.factors):
            assert a.scope == b.scope
            assert np.array_equal(a.values, b.values)
        assert write_uai(m2) == text

    @pytest.mark.parametrize("name", ["hand.wcsp", "queens4.wcsp"])
    def test_wcsp_roundtrip_fixpoint(self, name):
        m1 = parse_wcsp(load(name))
        text = write_wcsp(m1)
        m2 = parse_wcsp(text)
        for a, b in zip(m1.factors, m2.factors):
            assert a.scope == b.scope
            # exact, including inf cells restored through the emitted bound
            assert np.array_equal(a.values, b.values)
        assert write_wcsp(m2) == text

    def test_wcsp_bound_is_one_above_finite_max(self):
        m = parse_path(fixture_path("queens4.wcsp"))  # finite costs are all 0
        header = write_wcsp(m).splitlines()[0]
        assert header.split()[-1] == "1"

    def test_task_mismatch_rejected(self):
        wcsp = parse_wcsp(load("hand.wcsp"))
        uai = parse_uai(load("asym.uai"))
        with pytest.raises(FormatError):
            write_uai(wcsp)
        with pytest.raises(FormatError):
            write_wcsp(uai)

    def test_write_model_dispatch(self):
        wcsp = parse_wcsp(load("hand.wcsp"))
        uai = parse_uai(load("asym.uai"))
        assert write_model(wcsp).splitlines()[0].startswith("instance")
        assert write_model(uai).splitlines()[0] == "MARKOV"

    def test_parse_path_by_extension(self, tmp_path):
        p = tmp_path / "copy.wcsp"
        p.write_text(load("hand.wcsp"), encoding="ascii")
        assert parse_path(str(p)).task is Task.WCSP
        q = tmp_path / "copy.uai"
        q.write_text(load("asym.uai"), encoding="ascii")
        assert parse_path(str(q)).task is Task.MAP


class TestResultRecords:
    def solve_hand(self):
        m = parse_wcsp(load("hand.wcsp"))
        return bucket_elimination(m)

    def test_record_shape(self):
        res = self.solve_hand()
        rec = result_record("hand.wcsp", res, engine="dafsa")
        assert rec["file"] == "hand.wcsp" and rec["engine"] == "dafsa"
        assert rec["task"] == "WCSP" and rec["status"] == "optimal"
        assert rec["optimum"] == 1.0 and rec["assignment"] == [0, 1, 0]
        stats = rec["stats"]
        for key in (
            "induced_width",
            "buckets_processed",
            "messages",
            "max_entry_count",
            "max_automaton_states",
            "peak_live_states",
            "determinization_growth_avg",
            "determinization_samples",
        ):
            assert key in stats
        assert "wall_time_s" not in stats

    def test_timings_are_opt_in(self):
        res = self.solve_hand()
        rec = result_record("hand.wcsp", res, engine="dafsa", timings=True)
        assert rec["stats"]["wall_time_s"] >= 0.0
        assert "ordering_s" not in rec["stats"]
        rec = result_record("hand.wcsp", res, engine="dafsa", timings=True, ordering_s=0.25)
        assert rec["stats"]["ordering_s"] == 0.25
        rec = result_record("hand.wcsp", res, engine="dafsa", ordering_s=0.25)
        assert "ordering_s" not in rec["stats"] and "wall_time_s" not in rec["stats"]

    def test_error_record(self):
        rec = result_record("missing.uai", None, engine="dafsa", error="no such file")
        assert rec == {
            "file": "missing.uai",
            "engine": "dafsa",
            "status": "error",
            "error": "no such file",
        }
        human = record_to_human(rec)
        assert "error: no such file" in human and "status" not in human

    def test_infeasible_record_serializes(self):
        m = parse_wcsp("t 1 2 1 5\n2\n1 0 5 0\n")
        res = bucket_elimination(m)
        assert res.status == "infeasible"
        rec = result_record("x.wcsp", res, engine="dafsa")
        assert rec["optimum"] is None and rec["assignment"] is None
        json.loads(record_to_json(rec))

    def test_json_is_deterministic(self):
        a = result_record("hand.wcsp", self.solve_hand(), engine="dafsa")
        b = result_record("hand.wcsp", self.solve_hand(), engine="dafsa")
        assert record_to_json(a) == record_to_json(b)
        # keys come out sorted regardless of insertion order
        keys = list(json.loads(record_to_json(a)).keys())
        assert keys == sorted(keys)

    def test_redundancy_summary(self):
        res = self.solve_hand()
        rec = result_record("h", res, engine="dafsa", redundancy_per_factor=[0.25, 0.75])
        assert rec["stats"]["redundancy_per_factor"] == [0.25, 0.75]
        assert rec["stats"]["redundancy_mean"] == 0.5
        rec = result_record("h", res, engine="dafsa", redundancy_per_factor=[])
        assert rec["stats"]["redundancy_mean"] is None

    def test_human_rendering(self):
        rec = result_record("hand.wcsp", self.solve_hand(), engine="dafsa")
        text = record_to_human(rec)
        assert text.splitlines()[0] == "instance: hand.wcsp"
        assert "  optimum: 1\n" in text
        assert "  assignment: 0 1 0" in text
        assert "  induced_width:" in text
        # stats render sorted by key
        stats = [l.split(":")[0] for l in text.splitlines() if l.startswith("  max")]
        assert stats == sorted(stats)

    def test_write_result_json_lines(self):
        res = self.solve_hand()
        out = write_result(res, fmt="json-lines", path="hand.wcsp", engine="dafsa")
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out)["optimum"] == 1.0
