"""A kernel that runs out of memory raises MemoryError in both editions.

Each check runs in a child interpreter that caps its own address space
(``RLIMIT_AS``) just above what it uses, then starts a walk far larger
than the cap.  libstdc++ allocates a thread's exception state at its
first throw, so a compiled kernel whose first throw is a ``bad_alloc``
under the cap could not allocate it and aborted the interpreter instead;
the extension now throws once at import.  Which caps hit that depends on
the allocator, so the child is run at several.  The walk is sized so
that both editions run out of memory at every cap: a level-by-level walk
frees each level's unique table as it climbs, and at 14 variables a
table the compiled walk finished under the top cap.
"""

import os
import subprocess
import sys

import pytest

from conftest import python_env

resource = pytest.importorskip("resource")

# Two full tables over 15 binary variables, 40 random labels each, then
# their sum over 30 variables, the two reading disjoint halves: 40 copies
# of the second table below the first, every label pair its own label.
CHILD = """
import random, resource, sys
from array import array
from dafbe._backend import kernels
L = 15
rows = 1 << L
rng = random.Random(0)
digits = array("i", [(r >> (L - 1 - i)) & 1 for r in range(rows) for i in range(L)])
def table():
    labels = array("i", [rng.randrange(40) for _ in range(rows)])
    return kernels.compile_sorted(digits, rows, L, (2,) * L, labels, -1)[0]
a, b = table(), table()
with open("/proc/self/status") as status:
    kb = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
cap = (kb + int(sys.argv[1]) * 1024) * 1024
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
try:
    kernels.combine_entries(a, b, (2,) * 2 * L, [True] * L + [False] * L,
                            [False] * L + [True] * L, range(1600))
except MemoryError:
    print("MemoryError")
else:
    print("no error")
"""

CAPS_MB = range(20, 61, 5)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmSize from /proc")
def test_walk_past_the_address_cap_raises_memory_error(edition):
    pythonpath, kernels = edition
    env = python_env(pythonpath, kernels)
    children = {
        mb: subprocess.Popen([sys.executable, "-c", CHILD, str(mb)], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for mb in CAPS_MB
    }
    for mb, child in children.items():
        out, err = child.communicate(timeout=120)
        assert (child.returncode, out) == (0, "MemoryError\n"), (mb, err[-2000:])
