import dataclasses
import json
import math
import random

import numpy as np
import pytest

from dafbe.errors import DafbeError, FormatError
from dafbe.factor import SparseFactor
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
from dafbe.model import GraphicalModel, Task, bucket_elimination
from dafbe.oracle import brute_force

from conftest import bench_generators, fixture_path


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


_H = "t 2 2 1 10\n2 2\n"  # two binary variables, one function

# one malformed input per check, with the exact message and line it raises
WCSP_ERRORS = [
    ("empty", "", "line 1: unexpected end of file, expected problem name"),
    ("eof-in-header", "t 2 2\n", "line 1: unexpected end of file, expected function count"),
    ("var-count-not-int", "t x 2 1 10\n2 2\n",
     "line 1: expected integer variable count, got 'x'"),
    ("var-count-negative", "t -1 2 1 10\n", "line 1: variable count must be >= 0, got -1"),
    ("max-domain-negative", "t 2 -1 1 10\n2 2\n",
     "line 1: max domain size must be >= 0, got -1"),
    ("function-count-negative", "t 2 2 -1 10\n2 2\n",
     "line 1: function count must be >= 0, got -1"),
    ("upper-not-number", "t 2 2 1 x\n2 2\n",
     "line 1: expected number global upper bound, got 'x'"),
    ("upper-nan", "t 2 2 1 nan\n2 2\n", "line 1: global upper bound is NaN"),
    ("domain-not-int", "t 2 2 0 10\n2 two\n",
     "line 2: expected integer domain size of variable 1, got 'two'"),
    ("domain-below-1", "t 2 2 0 10\n2 0\n",
     "line 2: domain size of variable 1 must be >= 1, got 0"),
    ("eof-in-domains", "t 2 2 0 10\n2\n",
     "line 2: unexpected end of file, expected domain size of variable 1"),
    ("arity-not-int", _H + "x\n", "line 3: expected integer arity of function 0, got 'x'"),
    ("arity-negative", _H + "-1 0 0\n", "line 3: arity of function 0 must be >= 0, got -1"),
    ("variable-not-int", _H + "2 0 y 0 0\n",
     "line 3: expected integer variable 1 of function 0, got 'y'"),
    ("variable-out-of-range", _H + "2 0 5 0 0\n",
     "line 3: function 0 references variable 5, model has 2"),
    ("variable-at-count", _H + "2 0 2 0 0\n",
     "line 3: function 0 references variable 2, model has 2"),
    ("variable-negative", _H + "2 -1 0 0 0\n",
     "line 3: function 0 references variable -1, model has 2"),
    ("variable-repeated", _H + "2 1\n1 0 0\n", "line 4: function 0 repeats a variable"),
    ("eof-in-scope", _H + "2 0\n",
     "line 3: unexpected end of file, expected variable 1 of function 0"),
    ("default-not-number", _H + "2 0 1 z 0\n",
     "line 3: expected number default cost of function 0, got 'z'"),
    ("default-nan", _H + "2 0 1 nan 0\n", "line 3: default cost of function 0 is NaN"),
    ("exception-count-negative", _H + "2 0 1 0 -1\n",
     "line 3: exception count of function 0 must be >= 0, got -1"),
    ("exception-count-not-int", _H + "2 0 1 0 1.5\n",
     "line 3: expected integer exception count of function 0, got '1.5'"),
    ("tuple-value-not-int", _H + "2 0 1 0 1\n0 x 5\n",
     "line 4: expected integer tuple value 1 of exception 0 of function 0, got 'x'"),
    ("tuple-value-float", _H + "2 0 1 0 1\n1.0 0 5\n",
     "line 4: expected integer tuple value 0 of exception 0 of function 0, got '1.0'"),
    ("tuple-value-outside-domain", _H + "2 0 1 0 1\n0 2 5\n",
     "line 4: exception 0 of function 0: value 2 outside domain of variable 1"),
    ("tuple-value-negative", _H + "2 0 1 0 1\n-1 0 5\n",
     "line 4: exception 0 of function 0: value -1 outside domain of variable 0"),
    ("cost-not-number", _H + "2 0 1 0 1\n0 1 w\n",
     "line 4: expected number cost of exception 0 of function 0, got 'w'"),
    ("cost-nan", _H + "2 0 1 0 1\n0 1 nan\n", "line 4: cost of exception 0 of function 0 is NaN"),
    ("cost-negative", _H + "2 0 1 0 2\n0 1 -2\n1 1 3\n", "line 5: function 0 has a negative cost"),
    ("default-negative-covering", _H + "2 0 1 -1 1\n0 1 5\n",
     "line 4: function 0 has a negative cost"),
    ("default-minus-inf-covering-nothing", "t 1 2 1 10\n2\n1 0 -inf 2\n0 1\n1 2\n",
     "line 5: function 0 has a negative cost"),
    ("eof-in-tuple", _H + "2 0 1 0 1\n0\n",
     "line 4: unexpected end of file, expected tuple value 1 of exception 0 of function 0"),
    ("eof-before-cost", _H + "2 0 1 0 1\n0 1\n",
     "line 4: unexpected end of file, expected cost of exception 0 of function 0"),
    ("trailing-garbage", _H + "2 0 1 0 1\n0 1 5\n7 8\n", "line 5: trailing garbage starting at '7'"),
    ("second-function", "t 2 2 2 10\n2 2\n1 0 0 0\n2 1 1 0 0\n",
     "line 4: function 1 repeats a variable"),
    ("after-comment-line", "t 2 2 1 10\n# a comment\n2 2\n2 0 x 0 0\n",
     "line 4: expected integer variable 1 of function 0, got 'x'"),
    ("crlf-lines", "t 2 2 1 10\r\n2 2\r\n2 0 1 0 1\r\n0 1 nan\r\n",
     "line 4: cost of exception 0 of function 0 is NaN"),
]


def _signed(v):
    return (v, math.copysign(1.0, v))


def factor_fields(model):
    """Each factor's scope, domains, default and exceptions, signs of zero kept."""
    return [(f.scope, f.domains, _signed(f.default),
             [(w, _signed(v)) for w, v in f.exceptions.items()]) for f in model.factors]


# accepted inputs and the factors they give: (scope, domains, default, exceptions)
WCSP_ACCEPTED = [
    ("comment-tails", "t 1 2 1 10 # header\n2\n1 0 1 1 # scope\n0 3 # a tuple\n",
     [((0,), (2,), 1.0, {(0,): 3.0})]),
    ("tuple-split-across-lines", _H + "2 0 1 0 1\n0\n1\n5\n",
     [((0, 1), (2, 2), 0.0, {(0, 1): 5.0})]),
    ("repeated-tuple-keeps-last", _H + "2 0 1 0 3\n0 1 5\n1 1 2\n0 1 3\n",
     [((0, 1), (2, 2), 0.0, {(0, 1): 3.0, (1, 1): 2.0})]),
    ("negative-cost-overwritten", _H + "2 0 1 0 2\n0 1 -2\n0 1 3\n",
     [((0, 1), (2, 2), 0.0, {(0, 1): 3.0})]),
    ("negative-default-covering-nothing", "t 1 2 1 10\n2\n1 0 -1 2\n0 1\n1 2\n",
     [((0,), (2,), -1.0, {(0,): 1.0, (1,): 2.0})]),
    ("minus-zero-is-plus-zero", _H + "2 0 1 -0 1\n1 1 -0.0\n",
     [((0, 1), (2, 2), 0.0, {(1, 1): 0.0})]),
    ("at-or-above-upper-is-inf", _H + "2 0 1 10 2\n0 0 9.5\n1 1 11\n",
     [((0, 1), (2, 2), math.inf, {(0, 0): 9.5, (1, 1): math.inf})]),
    ("unsorted-scope-permuted", "t 3 3 1 10\n2 3 2\n3 2 0 1 0 2\n1 0 2 4\n0 1 1 6\n",
     [((0, 1, 2), (2, 3, 2), 0.0, {(0, 2, 1): 4.0, (1, 1, 0): 6.0})]),
    ("arity-zero", "t 1 2 1 10\n2\n0 4 2\n3\n1\n", [((), (), 4.0, {(): 1.0})]),
]


class TestWcspParseTable:
    @pytest.mark.parametrize("text, message", [c[1:] for c in WCSP_ERRORS],
                             ids=[c[0] for c in WCSP_ERRORS])
    def test_error(self, text, message):
        with pytest.raises(FormatError) as info:
            parse_wcsp(text)
        assert str(info.value) == message

    def test_non_ascii_byte(self, tmp_path):
        path = tmp_path / "bad.wcsp"
        path.write_bytes(b"t 1 2 0 10\n2 # caf\xe9\n")
        with pytest.raises(FormatError) as info:
            parse_path(str(path))
        assert str(info.value) == "line 2: non-ASCII byte 0xe9"

    @pytest.mark.parametrize("text, factors", [c[1:] for c in WCSP_ACCEPTED],
                             ids=[c[0] for c in WCSP_ACCEPTED])
    def test_accepted(self, text, factors):
        # the expected zeros are +0.0, so a -0.0 read fails
        expected = [(scope, dims, _signed(d), [(w, _signed(v)) for w, v in exc.items()])
                    for scope, dims, d, exc in factors]
        assert factor_fields(parse_wcsp(text)) == expected


# -- the token-at-a-time parser the run-reading one replaced, as the reference


class _RefTokens:
    def __init__(self, text):
        self.items = []  # (token, line)
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "#" in line:
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


def reference_parse_wcsp(text):
    toks = _RefTokens(text)
    toks.next("problem name")
    n_vars = toks.next_int("variable count", minimum=0)
    toks.next_int("max domain size", minimum=0)
    n_funcs = toks.next_int("function count", minimum=0)
    upper = toks.next_float("global upper bound")
    domains = [toks.next_int(f"domain size of variable {i}", minimum=1) for i in range(n_vars)]
    factors = []
    for i in range(n_funcs):
        arity = toks.next_int(f"arity of function {i}", minimum=0)
        raw_scope = []
        for j in range(arity):
            v = toks.next_int(f"variable {j} of function {i}")
            if not 0 <= v < n_vars:
                raise FormatError(
                    f"function {i} references variable {v}, model has {n_vars}", toks.last_line
                )
            raw_scope.append(v)
        if len(set(raw_scope)) != len(raw_scope):
            raise FormatError(f"function {i} repeats a variable", toks.last_line)
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
        if len(exceptions) < math.prod(dims) or default == -math.inf:
            resolved.append(default)
        if any(c < 0 for c in resolved):
            raise FormatError(f"function {i} has a negative cost", toks.last_line)

        def cap(c):
            return math.inf if c >= upper else c

        capped = {word: cap(c) for word, c in exceptions.items()}
        factors.append(SparseFactor(tuple(range(len(dims))), dims, cap(default), capped)
                       .renamed(raw_scope))
    toks.expect_end()
    return GraphicalModel(n_vars, tuple(domains), tuple(factors), Task.WCSP)


def _parse_outcome(parse, text):
    """The model's fields, signs of zero kept, or the error's type and text."""
    try:
        m = parse(text)
    except DafbeError as exc:
        return type(exc).__name__, str(exc)
    return m.n_vars, m.domains, factor_fields(m)


def _mutate(rng, text):
    """One random edit: a token deleted, duplicated or replaced, a line
    split or joined, or a comment tail added."""
    lines = text.split("\n")
    li = rng.randrange(len(lines))
    toks = lines[li].split(" ")
    kind = rng.randrange(6)
    if kind == 4:  # join with the next line
        if li + 1 < len(lines):
            lines[li : li + 2] = [lines[li] + " " + lines[li + 1]]
        return "\n".join(lines)
    ti = rng.randrange(len(toks))
    if kind == 0:
        del toks[ti]
    elif kind == 1:
        toks.insert(ti, toks[ti])
    elif kind == 2:
        toks[ti] = rng.choice(["-1", "x", "nan", "1.5", "1000", "0", "-0", "inf"])
    elif kind == 3:  # split the line before token ti
        toks[ti] = "\n" + toks[ti]
    else:
        toks.insert(ti, rng.choice(["#", "# 1 2", "#x"]))
    lines[li] = " ".join(toks)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def wcsp_corpora():
    """The seed-1 corpora of the WCSP workloads; of the slow-to-draw
    high-width one, its first eight instances."""
    gen = bench_generators()
    texts = []
    for name, size in (("wcsp-planted", 48), ("wcsp-wide-arity", 10), ("wcsp-high-width", 8)):
        workload = dataclasses.replace(gen.WORKLOADS[name], corpus_size=size)
        texts += [text for _, text in gen.corpus(workload, 1)]
    return texts


class TestWcspParseDifferential:
    def test_corpora_parse_alike(self, wcsp_corpora):
        for text in wcsp_corpora:
            assert _parse_outcome(parse_wcsp, text) == _parse_outcome(reference_parse_wcsp, text)

    def test_mutants_parse_alike(self, wcsp_corpora):
        rng = random.Random(28)
        errors = 0
        for trial in range(3000):
            text = rng.choice(wcsp_corpora)
            for _ in range(rng.choice([1, 1, 1, 2, 3])):
                text = _mutate(rng, text)
            got = _parse_outcome(parse_wcsp, text)
            assert got == _parse_outcome(reference_parse_wcsp, text), (trial, text)
            errors += isinstance(got[0], str)
        assert 300 < errors < 2900  # both outcomes are well exercised


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
