"""Reference figures for the two Jacobi twins beside LAPACK.

Usage, from the root of the repository:

    python3 qirbench/kernels.py

When gcc and the Python headers are present, compiles the shipped
``src/qir/_jacobi.c`` into a temporary directory under ``.qirbench_out/``
(deleted afterwards; no shared object is kept), then times on the same
Hermitian matrices at n = 2, 4, 8 and 16 the compiled ``jacobi_eigh``,
the pure-Python ``_jacobi_py.jacobi_eigh`` and LAPACK ``numpy.linalg.eigh``,
and prints the median of REPEATS calls in microseconds. Otherwise it
prints why the table was skipped. The rotation counts of the two twins
must agree, and both spectra must match LAPACK's.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src", "qir", "_jacobi.c")
DIMS = (2, 4, 8, 16)
REPEATS = 51


def compile_twin(build_dir: str):
    """Build and load the compiled twin; returns (module, None) or (None, reason)."""
    if not os.path.isfile(SOURCE):
        return None, f"no shipped C source at {os.path.relpath(SOURCE, ROOT)}"
    gcc = shutil.which("gcc")
    include = sysconfig.get_paths()["include"]
    if gcc is None:
        return None, "gcc not found"
    if not os.path.isfile(os.path.join(include, "Python.h")):
        return None, f"Python headers not found in {include}"
    target = os.path.join(build_dir, "_jacobi" + sysconfig.get_config_var("EXT_SUFFIX"))
    done = subprocess.run([gcc, "-O2", "-shared", "-fPIC", f"-I{include}", SOURCE, "-o", target],
                          capture_output=True, text=True)
    if done.returncode != 0:
        return None, f"gcc failed: {done.stderr.strip()[-500:]}"
    loader = importlib.machinery.ExtensionFileLoader("qir._jacobi", target)
    spec = importlib.util.spec_from_file_location("qir._jacobi", target, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module, None


def median_us(fn) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def table(compiled, python_kernel) -> list[str]:
    rng = np.random.default_rng(20)
    lines = [f"{'n':>3} {'compiled_us':>12} {'python_us':>12} {'lapack_us':>10} {'rotations':>10}"]
    for n in DIMS:
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = (z + z.conj().T) / 2
        budget = 100 * n * n

        def run(kernel):
            a = m.copy()
            v = np.eye(n, dtype=np.complex128)
            rotations, converged = kernel.jacobi_eigh(a, v, budget)
            return rotations, converged, np.sort(np.diag(a).real)

        ref = np.linalg.eigvalsh(m)
        results = [run(k) for k in (compiled, python_kernel)]
        for rotations, converged, w in results:
            if not converged or np.abs(w - ref).max() > 1e-10 * max(1.0, np.abs(ref).max()):
                raise SystemExit(f"kernel disagrees with LAPACK at n = {n}")
        if results[0][0] != results[1][0]:
            raise SystemExit(f"twins differ at n = {n}: {results[0][0]} vs {results[1][0]} rotations")
        lines.append(
            f"{n:>3} {median_us(lambda: run(compiled)):>12.1f}"
            f" {median_us(lambda: run(python_kernel)):>12.1f}"
            f" {median_us(lambda: np.linalg.eigh(m)):>10.1f} {results[0][0]:>10}"
        )
    return lines


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from qir import _jacobi_py

    out_root = os.path.join(ROOT, ".qirbench_out")
    os.makedirs(out_root, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=out_root) as build_dir:
            compiled, reason = compile_twin(build_dir)
            if compiled is None:
                print(f"kernel table skipped: {reason}")
                return 0
            print(f"jacobi_eigh, median of {REPEATS} calls (copies of the input included)")
            print("\n".join(table(compiled, _jacobi_py)))
        return 0
    finally:
        try:
            os.rmdir(out_root)
        except OSError:  # a benchmark run's directory is still there
            pass


if __name__ == "__main__":
    sys.exit(main())
