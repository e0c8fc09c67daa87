"""``dafbe solve --format json-lines`` must print exactly the committed records.

The inputs are ``tests/fixtures/*`` and the first two seed-1 instances of
each benchmark workload (``bench/generators.py``).  A record holds no
timing field, so the output of a correct solver is the same bytes on
every run; a change that alters any optimum, assignment or statistic
shows here as a diff against ``expected/solve.jsonl``.  Paths are given
relative to the directory the inputs are written to, so the records'
``file`` fields do not depend on where the tests run.  After an intended
change, ``PYTHONPATH=src:tests python tests/test_golden_output.py``
rewrites the expected file.
"""

import contextlib
import dataclasses
import io
import os
import pathlib
import shutil
import tempfile

from dafbe import cli

from conftest import FIXTURES, bench_generators

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected", "solve.jsonl")
WORKLOADS = ("wcsp-planted", "map-grid", "wcsp-wide-arity", "wcsp-high-width")


def _inputs(root):
    """Write the fixtures and corpus instances under ``root``; their relative paths."""
    names = []
    for sub in ("fixtures", "corpus"):
        os.makedirs(root / sub)
    for name in sorted(os.listdir(FIXTURES)):
        shutil.copy(os.path.join(FIXTURES, name), root / "fixtures" / name)
        names.append(f"fixtures/{name}")
    gen = bench_generators()
    for workload in WORKLOADS:
        for name, text in gen.corpus(dataclasses.replace(gen.WORKLOADS[workload], corpus_size=2), 1):
            (root / "corpus" / name).write_text(text)
            names.append(f"corpus/{name}")
    return names


def solve_output(root):
    """(json-lines output, input count) of one ``dafbe solve`` run in ``root``."""
    inputs = _inputs(root)
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(["solve", "--format", "json-lines", *inputs]) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue(), len(inputs)


def test_solve_json_lines_matches_expected(tmp_path):
    got, count = solve_output(tmp_path)
    with open(EXPECTED) as f:
        assert got == f.read()
    assert got.count("\n") == count


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        text, _ = solve_output(pathlib.Path(root))
    with open(EXPECTED, "w") as f:
        f.write(text)
