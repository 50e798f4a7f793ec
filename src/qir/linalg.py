"""Dense complex linear algebra for small operators.

Everything operates on square ``complex128`` arrays in row-major layout.
Composite systems put the A factor on the slow (outer) index:
``np.kron(a, b)`` tiles ``b`` inside the blocks of ``a``. The Hermitian
eigensolver is a cyclic Jacobi scheme (compiled core with a pure-Python
fallback, see ``qir.backend``): ``herm_eig`` checks one matrix, and
``_stack_eigenvalues`` takes the spectra of a finite stack already known
to be within 1e-10 of Hermitian. The kernel needs an exactly Hermitian
input and overwrites it, so both hand it the ``_hermitian_part`` of what
they are given, a new array; no caller copies or symmetrizes for it, and
no caller's array is overwritten; only ``herm_eig``, which reads
eigenvectors, appends identity rows for the kernel to turn. ``_jacobi``
makes the one kernel call of each stack and counts it (``kernel_counts``).
Products, adjoints and Kronecker products are numpy's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backend
from .errors import DimensionMismatch, InvariantViolation, NoConvergence, NotHermitian

HERMITICITY_TOL = 1e-10
ROTATION_BUDGET = 100  # Jacobi rotations per matrix entry
_KERNEL_COUNTS: dict[int, tuple[int, int, int]] = {}  # n -> (calls, slices, rotations), see kernel_counts


def as_operator(m) -> np.ndarray:
    """Validate ``m`` as a finite square complex matrix and return it."""
    return _as_operators(np.asarray(m, dtype=np.complex128)[None])[0]


def _as_operators(ms) -> np.ndarray:
    """Validate ``ms`` as a ``(k, n, n)`` stack of finite complex matrices and return it.

    ``as_operator`` is its one-matrix case: a bad shape is named without the stack axis.
    """
    a = np.asarray(ms, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape[1:]}")
    if not np.isfinite(a).all():
        raise InvariantViolation("matrix contains non-finite entries")
    return a


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectrum (ascending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2 over the last two axes, as a new C-contiguous array; nothing is checked.

    The one place qir symmetrizes a matrix. On a finite input within 1e-10 of
    Hermitian it gives what the kernel must be handed: an array whose bytes
    are those of its conjugate transpose up to the sign of a zero. On an
    input that is already its own Hermitian part it changes at most that sign.
    """
    return np.ascontiguousarray((a + np.swapaxes(a.conj(), -1, -2)) / 2.0)


def herm_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix via cyclic Jacobi rotations.

    The input may deviate from exact Hermiticity by at most 1e-10 in any
    entry (it is symmetrized before diagonalization); a larger defect
    raises ``NotHermitian``. The rotation budget is 100 * dim**2;
    exceeding it raises ``NoConvergence``.
    """
    a = as_operator(m)
    n = a.shape[0]
    defect = np.abs(a - a.conj().T).max(initial=0.0)
    if defect > HERMITICITY_TOL:
        raise NotHermitian(
            f"{n}x{n} matrix: Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.0e}"
        )
    work = np.concatenate((_hermitian_part(a[None]), np.eye(n, dtype=np.complex128)[None]), axis=1)
    _jacobi(work)
    w = np.diag(work[0, :n]).real.copy()
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(w[order], np.ascontiguousarray(work[0, n:][:, order]))


def _stack_eigenvalues(ms: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, shape ``(k, n)``, of a finite ``(k, n, n)`` stack within 1e-10 of Hermitian.

    Nothing is checked, and ``ms`` is left as it is: the kernel diagonalizes
    the stack's ``_hermitian_part``. Slice i gets the bits of
    ``herm_eig(ms[i]).eigenvalues``; a slice that does not converge is named
    by ``_jacobi``, from the stack alone.
    """
    work = _hermitian_part(ms)
    _jacobi(work)
    return np.sort(np.diagonal(work, axis1=1, axis2=2).real, axis=1, kind="stable")


def _jacobi(work: np.ndarray) -> None:
    """Diagonalize each slice of a finite C-contiguous ``(k, m, n)`` kernel buffer in place.

    Its first n rows are exactly Hermitian; the m - n below, none or the
    identity, turn into eigenvector columns. The one caller of the kernel:
    one ``backend.jacobi_eigh_stack`` call per stack, whatever k, counted in
    ``kernel_counts``. The budget is 100 * n**2 rotations per slice. A slice
    that exceeds it raises ``NoConvergence``, after the call is counted,
    since its rotations were spent. It names the first such slice from the
    stack alone: ``"{n}x{n} matrix"`` in a stack of one, ``"slice {i} ({n}x{n})"`` otherwise.
    """
    k, n = work.shape[0], work.shape[2]
    max_rotations = ROTATION_BUDGET * n * n
    rotations, converged = backend.jacobi_eigh_stack(work, max_rotations)
    calls, slices, spent = _KERNEL_COUNTS.get(n, (0, 0, 0))
    _KERNEL_COUNTS[n] = (calls + 1, slices + k, spent + sum(rotations.tolist()))
    if not all(converged):
        i = int(np.argmin(converged))
        where = f"{n}x{n} matrix" if k == 1 else f"slice {i} ({n}x{n})"
        raise NoConvergence(f"{where}: off-diagonal norm still above threshold after {rotations[i]} rotations")


def kernel_counts(since: dict | None = None) -> dict[int, tuple[int, int, int]]:
    """This process's kernel work, ``{n: (calls, slices, rotations)}``, or its growth ``since`` a snapshot.

    ``_jacobi`` counts each stack of n x n slices it hands the kernel as one
    call, its k slices (none for an empty stack) and their rotations,
    converged or not. With ``since``, each n that took a call after that
    snapshot maps to the differences. A worker process's counts stay in it.
    """
    now = dict(sorted(_KERNEL_COUNTS.items()))
    if since is None:
        return now
    return {n: tuple(x - y for x, y in zip(c, since.get(n, (0, 0, 0))))
            for n, c in now.items() if c != since.get(n)}
