"""Kernel backend selection.

The compiled extension ``dafbe._kernels_cc``, built from the one
hand-written ``_kernels_cc.cpp``, is preferred when importable; the
pure-Python kernels ``dafbe._kernels_py`` are the fallback and the
reference. DAFBE_KERNELS=python|compiled forces one side (forcing
"compiled" raises if the extension is missing, which is the right failure
for benchmarks).
"""

import os

_forced = os.environ.get("DAFBE_KERNELS", "").strip().lower()

if _forced == "python":
    from . import _kernels_py as kernels
elif _forced == "compiled":
    from . import _kernels_cc as kernels
elif _forced:
    raise ImportError(f"DAFBE_KERNELS must be 'python' or 'compiled', not {_forced!r}")
else:
    try:
        from . import _kernels_cc as kernels
    except ImportError:
        from . import _kernels_py as kernels

BACKEND = "compiled" if kernels.__name__.endswith("_cc") else "python"

__all__ = ["kernels", "BACKEND"]
