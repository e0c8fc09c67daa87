"""Build hook for the optional compiled kernel extension.

``dafbe._kernels_cc`` is built from the one hand-written C++17 file
``src/dafbe/_kernels_cc.cpp``; a C++17 compiler and the Python headers
are all it needs.  The package is fully functional without it:
``dafbe._backend`` falls back to the pure-Python kernels, and a failed
build only warns.
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the extension if possible, warn and continue if not."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # missing compiler, most likely
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(
            f"warning: could not build dafbe._kernels_cc ({exc}); "
            "falling back to pure-Python kernels",
            file=sys.stderr,
        )


KERNELS = Extension(
    "dafbe._kernels_cc",
    ["src/dafbe/_kernels_cc.cpp"],
    language="c++",
    extra_compile_args=["-std=c++17", "-O2"],
)

setup(ext_modules=[KERNELS], cmdclass={"build_ext": OptionalBuildExt})
