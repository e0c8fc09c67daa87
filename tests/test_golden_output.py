"""``dafbe solve``, ``dafbe stats`` and the model writers must give exactly
the committed bytes.

The inputs are ``tests/fixtures/*`` and the first two seed-1 instances of
each benchmark workload (``bench/generators.py``).  Three outputs are
pinned, each against its file under ``expected/``:

- ``solve.jsonl``: ``dafbe solve --format json-lines`` over every input;
- ``stats.json``: ``dafbe stats --format json`` over every input;
- ``models.txt``: ``formats.write_model`` of each parsed input, after a
  ``# <path>`` line.

No output holds a timing field, so a correct program prints the same
bytes on every run; a change that alters any optimum, assignment,
statistic or written table shows here as a diff.  Paths are given
relative to the directory the inputs are written to, so the ``file``
fields do not depend on where the tests run.  After an intended change,
``PYTHONPATH=src:tests python tests/test_golden_output.py`` rewrites all
three files.
"""

import contextlib
import dataclasses
import io
import os
import pathlib
import shutil
import tempfile

import pytest

from dafbe import cli, formats

from conftest import FIXTURES, bench_generators

EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")
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


def _cli_output(root, argv):
    """What ``dafbe <argv>`` prints when run in ``root``; it must exit 0."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue()


def outputs(root):
    """{expected file name: output} for inputs written under ``root``, and the input count."""
    inputs = _inputs(root)
    models = "".join(
        f"# {name}\n" + formats.write_model(formats.parse_path(str(root / name)))
        for name in inputs
    )
    return {
        "solve.jsonl": _cli_output(root, ["solve", "--format", "json-lines", *inputs]),
        "stats.json": _cli_output(root, ["stats", "--format", "json", *inputs]),
        "models.txt": models,
    }, len(inputs)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


def _expected(name):
    with open(os.path.join(EXPECTED, name)) as f:
        return f.read()


def test_solve_json_lines_matches_expected(golden):
    assert golden[0]["solve.jsonl"] == _expected("solve.jsonl")


def test_stats_json_matches_expected(golden):
    assert golden[0]["stats.json"] == _expected("stats.json")


def test_written_models_match_expected(golden):
    assert golden[0]["models.txt"] == _expected("models.txt")


def test_every_input_is_pinned(golden):
    got, count = golden
    assert got["solve.jsonl"].count("\n") == count
    assert got["models.txt"].count("\n# ") + 1 == count


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        texts, _ = outputs(pathlib.Path(root))
    for name, text in texts.items():
        with open(os.path.join(EXPECTED, name), "w") as f:
            f.write(text)
