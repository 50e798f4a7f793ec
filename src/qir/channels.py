"""CPTP maps acting on the measured subsystem.

``dephase`` projects the A factor onto an observable's eigenbasis (an
unread projective measurement); ``monitor`` mixes the input with its
dephased image, modelling a measurement of strength ``eps``. Outputs are
re-symmetrized to keep round-off from accumulating across long chains.
``dephased_blocks`` is the one place the state is rewritten in the
measured frame; entropies of dephased states are taken from its blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OutOfRange
from .states import BipartiteState, ObservableBasis

NULL_PROB = 1e-12


def _check_pair(x: ObservableBasis, rho: BipartiteState) -> None:
    if x.d != rho.d_a:
        raise DimensionMismatch(f"basis dim {x.d} != state d_a {rho.d_a}")


def _frame(x: ObservableBasis, d_b: int) -> np.ndarray:
    """Unitary with columns x_i (x) e_j; ``w^dag rho w`` is rho in the measured frame."""
    return np.kron(x.vectors, np.eye(d_b))


def dephased_blocks(x: ObservableBasis, rho: BipartiteState) -> np.ndarray:
    """Diagonal blocks of ``rho`` in the eigenbasis of ``x``, shape (d_a, d_b, d_b).

    Block i is the unnormalized conditional state p_i sigma_i on B. They
    are all that dephasing keeps: the dephased state is their direct sum
    in that frame, so its spectrum is the union of theirs.
    """
    _check_pair(x, rho)
    d_a, d_b = rho.d_a, rho.d_b
    w = _frame(x, d_b)
    tilted = (w.conj().T @ rho.rho @ w).reshape(d_a, d_b, d_a, d_b)
    idx = np.arange(d_a)
    return tilted[idx, :, idx, :]


def _dephased_matrix(x: ObservableBasis, rho: BipartiteState) -> np.ndarray:
    """Dense sum of (P_i x 1_B) rho (P_i x 1_B), symmetrized but not validated."""
    d_a, d_b, dim = rho.d_a, rho.d_b, rho.dim
    kept = np.zeros((d_a, d_b, d_a, d_b), dtype=np.complex128)
    idx = np.arange(d_a)
    kept[idx, :, idx, :] = dephased_blocks(x, rho)
    w = _frame(x, d_b)
    out = w @ kept.reshape(dim, dim) @ w.conj().T
    return (out + out.conj().T) / 2.0


def dephase(x: ObservableBasis, rho: BipartiteState) -> BipartiteState:
    """Sum of projections (P_i x 1_B) rho (P_i x 1_B) over the basis columns.

    Idempotent, trace preserving, and leaves the B marginal untouched.
    """
    return BipartiteState(rho.d_a, rho.d_b, _dephased_matrix(x, rho))


@dataclass(frozen=True, eq=False)
class DephasedDecomposition:
    """Separable form of a dephased state: outcome probabilities and the
    conditional B states, one per basis column (None where the outcome
    probability is below ``NULL_PROB``)."""

    basis: ObservableBasis
    d_b: int
    probs: np.ndarray
    cond_states: tuple

    def reconstruct(self) -> np.ndarray:
        """Assemble sum_i p_i |x_i><x_i| (x) sigma_i as a dense matrix."""
        d_a, d_b = self.basis.d, self.d_b
        out = np.zeros((d_a * d_b, d_a * d_b), dtype=np.complex128)
        for i, sigma in enumerate(self.cond_states):
            if sigma is None:
                continue
            col = self.basis.column(i)
            out += self.probs[i] * np.kron(np.outer(col, col.conj()), sigma)
        return out


def dephased_decomposition(x: ObservableBasis, rho: BipartiteState) -> DephasedDecomposition:
    """Outcome probabilities and conditional B states of the dephased state."""
    blocks = dephased_blocks(x, rho)
    probs = np.empty(rho.d_a)
    cond = []
    for i, block in enumerate(blocks):
        p = float(np.trace(block).real)
        probs[i] = p
        if p <= NULL_PROB:
            cond.append(None)
        else:
            sigma = block / p
            cond.append((sigma + sigma.conj().T) / 2.0)
    return DephasedDecomposition(x, rho.d_b, probs, tuple(cond))


def monitor(y: ObservableBasis, eps: float, rho: BipartiteState) -> BipartiteState:
    """Weak unread measurement: (1-eps) * rho + eps * dephase(y, rho)."""
    eps = float(eps)
    if not 0.0 <= eps <= 1.0:
        raise OutOfRange(f"monitoring strength must lie in [0, 1], got {eps}")
    _check_pair(y, rho)
    if eps == 0.0:
        return rho
    mixed = (1.0 - eps) * rho.rho + eps * _dephased_matrix(y, rho)
    mixed = (mixed + mixed.conj().T) / 2.0
    return BipartiteState(rho.d_a, rho.d_b, mixed)


def monitor_n(y: ObservableBasis, eps: float, n: int, rho: BipartiteState) -> BipartiteState:
    """n-fold application of ``monitor``, computed iteratively.

    Equals a single application at strength 1 - (1-eps)**n; keeping the
    iteration genuine lets tests treat the composition law as a check
    rather than a definition.
    """
    if n < 0:
        raise OutOfRange(f"repetition count must be >= 0, got {n}")
    out = rho
    for _ in range(n):
        out = monitor(y, eps, out)
    return out
