"""The WCSP solve path never imports numpy; dense tables load it on demand.

Each check runs in a fresh interpreter, once per kernel edition (the
compiled one from the ``compiled_src`` copy), because whether numpy is
loaded is a property of the whole process.
"""

import contextlib
import glob
import io
import json
import os

from dafbe import cli

from conftest import FIXTURES, run_python

WCSP = sorted(glob.glob(os.path.join(FIXTURES, "*.wcsp")))
UAI = sorted(glob.glob(os.path.join(FIXTURES, "*.uai")))
HAND = os.path.join(FIXTURES, "hand.wcsp")

# (name, argv) in the order the child runs them; until the first dense
# run, numpy must stay unloaded
WCSP_RUNS = [
    ("solve", ["solve", "--format", "json-lines", *WCSP]),
    ("stats", ["stats", *WCSP]),
]
DENSE_RUNS = [
    ("check-all", ["solve", "--engine", "check-all", "--format", "json-lines", HAND]),
    ("uai", ["solve", "--format", "json-lines", *UAI]),
]

CHILD = """
import contextlib, io, json, sys
loaded = {}
import dafbe
loaded["import dafbe"] = "numpy" in sys.modules
import dafbe.cli
loaded["import dafbe.cli"] = "numpy" in sys.modules
outputs = {}
for name, argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = dafbe.cli.main(argv)
    outputs[name] = [rc, buf.getvalue()]
    loaded[name] = "numpy" in sys.modules
print(json.dumps({"backend": dafbe.BACKEND, "loaded": loaded, "outputs": outputs}))
"""


def in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return [rc, buf.getvalue()]


def test_wcsp_path_never_imports_numpy(edition):
    pythonpath, kernels = edition
    out = run_python(pythonpath, ["-c", CHILD, json.dumps(WCSP_RUNS + DENSE_RUNS)], kernels)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["backend"] == kernels
    loaded = doc["loaded"]
    for step in ["import dafbe", "import dafbe.cli"] + [name for name, _ in WCSP_RUNS]:
        assert loaded[step] is False, f"numpy loaded by {step}"
    # the oracles and dense tables load it when they first need it
    assert loaded["check-all"] is True and loaded["uai"] is True
    # the same records as in this process, where numpy was loaded from the start
    for name, argv in WCSP_RUNS + DENSE_RUNS:
        assert doc["outputs"][name] == in_process(argv), name
