"""Build script: compiles the optional eigensolver core from its C source.

``src/qir/_jacobi.c`` is written by hand against Python's buffer protocol
(``Python.h``, ``complex.h`` and ``math.h`` only), so the build needs a C
compiler and the Python headers, and neither Cython nor numpy's headers.
The package works without the extension (a pure-Python kernel is selected
at import time), so a failed build must not break the install: any
failure while building the extension downgrades to a warning.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that tolerates a missing toolchain."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # pragma: no cover - depends on toolchain
            warnings.warn(f"compiled core skipped ({exc}); using pure-Python kernel")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # pragma: no cover - depends on toolchain
            warnings.warn(f"compiled core skipped ({exc}); using pure-Python kernel")


setup(
    ext_modules=[Extension("qir._jacobi", ["src/qir/_jacobi.c"])],
    cmdclass={"build_ext": OptionalBuildExt},
)
