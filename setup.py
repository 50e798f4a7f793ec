"""Build script: compiles the optional eigensolver core from its C source.

``src/qir/_jacobi.c`` is written by hand against Python's buffer protocol
(``Python.h``, ``complex.h`` and ``math.h`` only), so the build needs a C
compiler and the Python headers, and neither Cython nor numpy's headers.
"""

from setuptools import Extension, setup

setup(
    # optional: a failed build prints a warning and the install goes on, because
    # the package falls back to its pure-Python kernel at import
    ext_modules=[Extension("qir._jacobi", ["src/qir/_jacobi.c"], optional=True)],
)
