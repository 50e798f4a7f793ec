"""Dense complex linear algebra for small operators.

Everything operates on square ``complex128`` arrays in row-major layout.
Composite systems put the A factor on the slow (outer) index:
``np.kron(a, b)`` tiles ``b`` inside the blocks of ``a``. The Hermitian
eigensolver is a cyclic Jacobi scheme (compiled core with a pure-Python
fallback, see ``qir.backend``): ``herm_eig`` checks one matrix, and
``_stack_eigenvalues`` takes the spectra of a stack already known to be
finite and exactly Hermitian. Products, adjoints and Kronecker products
are numpy's own (``@``, ``.conj().T``, ``np.kron``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .errors import DimensionMismatch, InvariantViolation, NoConvergence, NotHermitian

HERMITICITY_TOL = 1e-10
ROTATION_BUDGET = 100  # Jacobi rotations per matrix entry


def as_operator(m) -> np.ndarray:
    """Validate ``m`` as a finite square complex matrix and return it."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvariantViolation("matrix contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectrum (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2 of each slice of a ``(k, n, n)`` stack, C-contiguous; nothing is checked."""
    return np.ascontiguousarray((a + a.conj().transpose(0, 2, 1)) / 2.0)


def _symmetrized(a: np.ndarray, label: str) -> np.ndarray:
    """Check a ``(k, n, n)`` stack for Hermiticity; its ``_hermitian_part``.

    A slice whose largest entry of ``a - a^dag`` exceeds 1e-10 raises
    ``NotHermitian``; ``label.format(i=slice, n=n)`` names it.
    """
    k, n = a.shape[0], a.shape[1]
    if k and n:
        defects = np.abs(a - a.conj().transpose(0, 2, 1)).max(axis=(1, 2))
        i = int(defects.argmax())
        if defects[i] > HERMITICITY_TOL:
            raise NotHermitian(
                f"{label.format(i=i, n=n)}: Hermiticity defect {defects[i]:.3e} "
                f"exceeds {HERMITICITY_TOL:.0e}"
            )
    return _hermitian_part(a)


def herm_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix via cyclic Jacobi rotations.

    The input may deviate from exact Hermiticity by at most 1e-10 in any
    entry (it is symmetrized before diagonalization); a larger defect
    raises ``NotHermitian``. The rotation budget is 100 * dim**2;
    exceeding it raises ``NoConvergence``.
    """
    work = _symmetrized(as_operator(m)[None], "{n}x{n} matrix")
    vecs = _jacobi(work, "{n}x{n} matrix")[0]
    w = np.diag(work[0]).real.copy()
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(w[order], np.ascontiguousarray(vecs[:, order]))


def _stack_eigenvalues(work: np.ndarray, label: str = "slice {i} ({n}x{n})") -> np.ndarray:
    """Ascending eigenvalues, shape ``(k, n)``, of a finite, exactly Hermitian, C-contiguous stack.

    Nothing is checked. Slice i gets the bits of ``herm_eig(work[i]).eigenvalues``.
    The kernel overwrites ``work``; ``label`` names a slice that does not
    converge, as in ``_jacobi``.
    """
    _jacobi(work, label)
    return np.sort(np.diagonal(work, axis1=1, axis2=2).real, axis=1, kind="stable")


def _jacobi(work: np.ndarray, label: str) -> np.ndarray:
    """Diagonalize each slice of a finite, exactly Hermitian, C-contiguous ``(k, n, n)`` stack in place.

    The one caller of the kernel. A stack of one runs ``jacobi_eigh``, which
    is the faster entry for a single matrix; any other stack runs
    ``jacobi_eigh_stack``. Both give a slice the same bits. Returns the
    eigenvector stack, columns in the order of the diagonals of ``work``.
    The budget is 100 * n**2 rotations per slice. A slice that
    exceeds it raises ``NoConvergence``; ``label.format(i=slice, n=n)``
    names it.
    """
    k, n = work.shape[0], work.shape[1]
    vecs = np.broadcast_to(np.eye(n, dtype=np.complex128), work.shape).copy()
    max_rotations = ROTATION_BUDGET * n * n
    if k == 1:
        rotations, converged = backend.jacobi_eigh(work[0], vecs[0], max_rotations)
        rotations, converged = [rotations], [converged]
    else:
        rotations, converged = backend.jacobi_eigh_stack(work, vecs, max_rotations)
    if not all(converged):
        i = int(np.argmin(converged))
        raise NoConvergence(
            f"{label.format(i=i, n=n)}: off-diagonal norm still above threshold "
            f"after {rotations[i]} rotations"
        )
    return vecs
