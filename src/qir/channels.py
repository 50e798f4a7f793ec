"""CPTP maps acting on the measured subsystem.

``dephase`` projects the A factor onto an observable's eigenbasis (an
unread projective measurement); ``monitor`` mixes the input with its
dephased image, modelling a measurement of strength ``eps``. Every output
matrix is its ``linalg._hermitian_part``, which keeps round-off from
accumulating across long chains.
``_blocks`` is the one place a matrix is rewritten in the measured
frame; entropies of dephased states are taken from its blocks. Block i
is p_i sigma_i: its trace is the probability of outcome i and, where
that is nonzero, the block over it is the conditional B state. The
dephased state is their direct sum, so its spectrum is the union of theirs.
"""

from __future__ import annotations

import numpy as np

from . import linalg
from .errors import DimensionMismatch, OutOfRange
from .states import BipartiteState, ObservableBasis


def _check_pair(x: np.ndarray, d_a: int) -> None:
    """``x``, basis vectors of shape ``(d, d)`` or ``(k, d, d)``, must have d = d_a."""
    if x.shape[-1] != d_a:
        raise DimensionMismatch(f"basis dim {x.shape[-1]} != state d_a {d_a}")


def _frame(x: np.ndarray, d_b: int) -> np.ndarray:
    """Unitary with columns x_i (x) e_j per basis; ``w^dag rho w`` is rho in the measured frame.

    ``x`` is one basis's vectors ``(d, d)`` or a ``(k, d, d)`` stack of them,
    and the result ``(n, n)`` or ``(k, n, n)``, n = d * d_b: for each basis
    ``np.kron(x, np.eye(d_b))``, as the one broadcast multiply that
    ``np.kron`` performs inside (the same bytes), without its shape handling.
    """
    n = x.shape[-1] * d_b
    return (x[..., :, None, :, None] * np.eye(d_b)[:, None, :]).reshape(*x.shape[:-2], n, n)


def _blocks(x: np.ndarray, ms: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Diagonal d_b x d_b blocks of each d_a*d_b matrix of the stack ``ms`` in the frame of ``x``.

    ``ms`` has shape ``(k, d_a*d_b, d_a*d_b)`` and the result ``(k, d_a, d_b, d_b)``.
    ``x`` is one basis ``(d_a, d_a)`` shared by every matrix, or one basis per
    matrix ``(k, d_a, d_a)``; a stack of one matrix broadcasts against k bases.
    The frames are built once, and each slice gets the bits that a stack of
    one matrix and its one shared basis gives it.
    """
    w = _frame(x, d_b)
    tilted = (np.swapaxes(w.conj(), -1, -2) @ ms @ w).reshape(-1, d_a, d_b, d_a, d_b)
    idx = np.arange(d_a)
    return tilted[:, idx, :, idx, :].swapaxes(0, 1)


def _dephased_matrix(x: np.ndarray, ms: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """Dense sum of (P_i x 1_B) m (P_i x 1_B) for each m of the stack ``ms``, symmetrized but not validated.

    ``x`` and ``ms`` broadcast as in ``_blocks``; the result is ``(k, n, n)``.
    """
    blocks = _blocks(x, ms, d_a, d_b)
    k, dim = len(blocks), d_a * d_b
    kept = np.zeros((k, d_a, d_b, d_a, d_b), dtype=np.complex128)
    idx = np.arange(d_a)
    kept[:, idx, :, idx, :] = blocks.swapaxes(0, 1)
    w = _frame(x, d_b)
    return linalg._hermitian_part(w @ kept.reshape(k, dim, dim) @ np.swapaxes(w.conj(), -1, -2))


def _monitored_matrix(m: np.ndarray, dephased: np.ndarray, eps) -> np.ndarray:
    """(1-eps) * m + eps * dephased, symmetrized but not validated.

    An ``eps`` of shape ``(k, 1, 1)`` gives the ``(k, n, n)`` stack of one
    matrix per strength, each with the bits of its scalar ``eps``.
    """
    return linalg._hermitian_part((1.0 - eps) * m + eps * dephased)


def dephase(x: ObservableBasis, rho: BipartiteState) -> BipartiteState:
    """Sum of projections (P_i x 1_B) rho (P_i x 1_B) over the basis columns.

    Idempotent, trace preserving, and leaves the B marginal untouched.
    """
    _check_pair(x.vectors, rho.d_a)
    return BipartiteState(rho.d_a, rho.d_b, _dephased_matrix(x.vectors, rho.rho[None], rho.d_a, rho.d_b)[0])


def _check_strength(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise OutOfRange(f"monitoring strength must lie in [0, 1], got {eps}")
    return eps


def monitor(y: ObservableBasis, eps: float, rho: BipartiteState) -> BipartiteState:
    """Weak unread measurement: (1-eps) * rho + eps * dephase(y, rho); ``rho`` itself at 0.

    ``monitor_n`` with one step: the same checks, in the same order.
    """
    return monitor_n(y, eps, 1, rho)


def _monitor_grid(y: np.ndarray, strengths, d_a: int, rhos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrices ``(k, n, n)`` and spectra ``(k, n)`` of each matrix monitored by Y at its strength.

    ``strengths`` holds k strengths. ``y`` is one basis ``(d_a, d_a)`` or one
    per strength ``(k, d_a, d_a)``; ``rhos`` are the matrices of checked
    states, one shared ``(1, n, n)`` or one per strength. Row i has the bytes
    of the state ``monitor(y_i, eps_i, rho_i)`` builds: the mixtures are formed
    in one broadcast, a strength of 0 keeps rho_i (its mixture can flip the sign
    of a zero), and one stacked call takes every row's spectrum, rho_i's from
    the Hermitian part its state check diagonalized. The rows are not checked
    again (the entropy pass that reads a spectrum checks it).
    """
    strengths = np.array([_check_strength(eps) for eps in strengths])[:, None, None]
    _check_pair(y, d_a)
    dephased = _dephased_matrix(y, rhos, d_a, rhos.shape[-1] // d_a)
    monitored = np.where(strengths != 0.0, _monitored_matrix(rhos, dephased, strengths), rhos)
    return monitored, linalg._stack_eigenvalues(monitored)


def monitor_n(y: ObservableBasis, eps: float, n: int, rho: BipartiteState) -> BipartiteState:
    """n-fold weak unread measurement of ``y`` at strength ``eps``, computed iteratively.

    Equals a single application at strength 1 - (1-eps)**n; keeping the
    iteration genuine lets tests treat the composition law as a check
    rather than a definition. Only the final state is validated; each
    step's output is exactly Hermitian.
    """
    if n < 0:
        raise OutOfRange(f"repetition count must be >= 0, got {n}")
    eps = _check_strength(eps)
    _check_pair(y.vectors, rho.d_a)
    if n == 0 or eps == 0.0:
        return rho
    m = rho.rho[None]
    for _ in range(n):
        m = _monitored_matrix(m, _dephased_matrix(y.vectors, m, rho.d_a, rho.d_b), eps)
    return BipartiteState(rho.d_a, rho.d_b, m[0])
