"""Scalar entropy functionals, all in nats.

Shannon and von Neumann entropies, the conditional entropies H(A|B) and
H(X|B), quantum relative entropy on the support of its second argument,
and the irreality of an observable (the entropy gained by dephasing the
state in that observable's eigenbasis). The entropy of a dephased state
is taken from its d_a diagonal blocks of size d_b x d_b in the measured
frame rather than from the dense dephased matrix.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .channels import dephased_blocks
from .errors import DimensionMismatch, InvariantViolation, NotDistribution
from .states import BipartiteState, ObservableBasis

EIG_CLIP = 1e-10
SUPPORT_CUTOFF = 1e-12
SUPPORT_LEAK_TOL = 1e-9
SUM_TOL = 1e-8


def shannon(p) -> float:
    """-sum p_i ln p_i with 0 ln 0 = 0; clips and renormalizes tiny noise."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise NotDistribution("expected a nonempty probability vector")
    if arr.min() < -EIG_CLIP:
        raise NotDistribution(f"negative weight {arr.min():.3e} beyond tolerance")
    arr = np.clip(arr, 0.0, None)
    total = float(arr.sum())
    if abs(total - 1.0) > SUM_TOL:
        raise NotDistribution(f"weights sum to {total!r}, not 1")
    arr = arr / total
    pos = arr[arr > 0.0]
    return float(-(pos * np.log(pos)).sum()) + 0.0


def _clipped_spectrum(w: np.ndarray) -> np.ndarray:
    if w.min() < -EIG_CLIP:
        raise InvariantViolation(f"eigenvalue {w.min():.3e} below -{EIG_CLIP:.0e}")
    return np.clip(w, 0.0, None)


def _density_matrix(rho) -> np.ndarray:
    if isinstance(rho, BipartiteState):
        return rho.rho
    return linalg.as_operator(rho)


def _density_spectrum(rho) -> np.ndarray:
    if isinstance(rho, BipartiteState):
        return rho.spectrum
    return linalg.herm_eig(rho).eigenvalues


def vn_entropy(rho) -> float:
    """von Neumann entropy -Tr(rho ln rho) of a state or density matrix."""
    return shannon(_clipped_spectrum(_density_spectrum(rho)))


def cond_entropy(rho: BipartiteState) -> float:
    """Conditional entropy H(A|B) = S(rho_AB) - S(rho_B); negative values
    certify entanglement."""
    return vn_entropy(rho) - vn_entropy(rho.reduced_b())


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy Tr rho (ln rho - ln sigma) in nats.

    ``ln sigma`` is taken on the support of ``sigma`` (eigenvalues above
    1e-12); if ``rho`` carries more than 1e-9 weight outside that support
    the divergence is infinite and ``math.inf`` is returned.
    """
    r = _density_matrix(rho)
    s = _density_matrix(sigma)
    if r.shape != s.shape:
        raise DimensionMismatch(f"operands of shape {r.shape} and {s.shape}")
    eig_s = linalg.herm_eig(s)
    on_support = eig_s.eigenvalues > SUPPORT_CUTOFF
    vecs = eig_s.eigenvectors[:, on_support]
    weights = np.einsum("ij,ik,kj->j", vecs.conj(), r, vecs).real
    leak = float(np.trace(r).real - weights.sum())
    if leak > SUPPORT_LEAK_TOL:
        return math.inf
    w_r = _clipped_spectrum(_density_spectrum(rho))
    pos = w_r[w_r > 0.0]
    tr_r_ln_r = float((pos * np.log(pos)).sum())
    tr_r_ln_s = float((weights * np.log(eig_s.eigenvalues[on_support])).sum())
    return tr_r_ln_r - tr_r_ln_s


def _joint_entropies(parts) -> list[float]:
    """Entropy of the joined spectrum of each part; all blocks in one stacked call.

    Each part is a ``(j, m, m)`` stack holding the diagonal blocks of one
    block-diagonal density matrix (a lone matrix is a part with j = 1);
    every part has the same m. Each block passes the checks of
    ``herm_eig``; each joined spectrum is checked for positivity and unit
    trace. The result is bit for bit what per-block ``herm_eig`` calls give.
    """
    spectra = linalg.herm_eig_stack(np.concatenate(parts))
    bounds = np.cumsum([0] + [len(part) for part in parts])
    return [
        shannon(_clipped_spectrum(spectra[lo:hi].reshape(-1)))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


def _configuration_entropies(bases, states) -> list[list[float]]:
    """Per state, S(rho_B) and then S(rho dephased in b) for each basis b.

    The B marginals and the blocks of every state and basis go through one
    stacked call of ``_joint_entropies``.
    """
    parts = []
    for rho in states:
        parts.append(rho.reduced_b()[None])
        parts.extend(dephased_blocks(b, rho) for b in bases)
    flat = _joint_entropies(parts)
    width = 1 + len(bases)
    return [flat[i : i + width] for i in range(0, len(flat), width)]


def dephased_entropy(x: ObservableBasis, rho: BipartiteState) -> float:
    """von Neumann entropy of the state dephased in the eigenbasis of ``x``.

    Equals ``vn_entropy(dephase(x, rho))``: the dephased state is block
    diagonal in the measured frame, so its spectrum is the union of the
    spectra of the d_a blocks p_i sigma_i (the joint-entropy theorem).
    """
    return _joint_entropies([dephased_blocks(x, rho)])[0]


def uncertainty(x: ObservableBasis, rho: BipartiteState) -> float:
    """Memory-assisted uncertainty H(X|B) = S(dephased state) - S(rho_B).

    Nonnegative (the dephased state is separable across the A:B cut); for
    d_b = 1 it reduces to the Shannon entropy of the outcome probabilities.
    """
    return dephased_entropy(x, rho) - vn_entropy(rho.reduced_b())


def irreality(x: ObservableBasis, rho: BipartiteState) -> float:
    """Entropy gained by dephasing in the eigenbasis of ``x``.

    Vanishes exactly when the state is already invariant under that
    dephasing, i.e. when the observable is fully real for the state.
    """
    return dephased_entropy(x, rho) - vn_entropy(rho)
