"""The compiled and pure-Python Jacobi kernels must be interchangeable."""

import re
from pathlib import Path

import numpy as np
import pytest

import qir
from qir import backend, linalg
from qir.errors import ConfigError

from conftest import random_hermitian

# the compiled twin, built from the shipped C source by the conftest fixture if need be
needs_compiled = pytest.mark.usefixtures("compiled_kernel")


@pytest.fixture
def restore_backend():
    name = backend.backend_name()
    yield
    backend.set_backend(name)


def test_python_backend_always_available():
    assert "python" in backend.available_backends()


def test_set_backend_rejects_unknown():
    with pytest.raises(ConfigError):
        backend.set_backend("fortran")


@needs_compiled
def test_kernels_agree_on_random_matrices(rng, restore_backend):
    for n in (2, 3, 5, 8, 13, 16):
        m = random_hermitian(rng, n)
        backend.set_backend("compiled")
        fast = linalg.herm_eig(m)
        backend.set_backend("python")
        slow = linalg.herm_eig(m)
        assert np.abs(fast.eigenvalues - slow.eigenvalues).max() <= 1e-12
        for eig in (fast, slow):
            recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
            assert np.abs(recon - m).max() <= 1e-10


def test_python_backend_full_stack(rng, restore_backend):
    """A whole pipeline spot-check on the fallback kernel."""
    import qir

    backend.set_backend("python")
    bell = qir.max_entangled(2)
    x, y = qir.computational_basis(2), qir.fourier_basis(2)
    report = qir.check_combined_ur(x, y, bell)
    assert abs(report.slack) <= 1e-9
    assert abs(qir.irreality(x, bell) - np.log(2)) <= 1e-9


@needs_compiled
def test_kernel_rotation_counts_match(rng, restore_backend):
    """Same rotation schedule implies identical rotation counts."""
    from qir import _jacobi, _jacobi_py

    m = random_hermitian(rng, 9)
    a1, v1 = m.copy(), np.eye(9, dtype=complex)
    a2, v2 = m.copy(), np.eye(9, dtype=complex)
    rot1, conv1 = _jacobi.jacobi_eigh(a1, v1, 8100)
    rot2, conv2 = _jacobi_py.jacobi_eigh(a2, v2, 8100)
    assert conv1 and conv2
    assert rot1 == rot2
    assert np.abs(a1 - a2).max() <= 1e-12


def test_shipped_c_matches_pyx():
    """Each ``_jacobi.pyx`` line that Cython quoted in ``_jacobi.c`` is unchanged.

    Cython opens a comment ``/* "qir/_jacobi.pyx":N`` before the C code of
    source line N and quotes that line with an arrow suffix. A mismatch means
    the shipped C was generated from another version of the ``.pyx``.
    """
    package = Path(qir.__file__).parent
    pyx = (package / "_jacobi.pyx").read_text().splitlines()
    c_lines = (package / "_jacobi.c").read_text().splitlines()
    marker = re.compile(r'/\* "qir/_jacobi\.pyx":(\d+)$')
    arrow = "             # <<<<<<<<<<<<<<"
    mismatches = []
    checked = 0
    for i, line in enumerate(c_lines):
        found = marker.search(line)
        if found is None:
            continue
        n = int(found.group(1))
        block = c_lines[i + 1 : c_lines.index("*/", i + 1)]
        (quoted,) = [q[len(" * ") : -len(arrow)] for q in block if q.endswith(arrow)]
        checked += 1
        if quoted != pyx[n - 1].rstrip():
            mismatches.append((i + 1, n, quoted, pyx[n - 1]))
    assert checked > 0
    assert not mismatches, f"_jacobi.c is stale against _jacobi.pyx: {mismatches[:3]}"
