"""Entropy functionals, all in nats.

Shannon and von Neumann entropies, the conditional entropies H(A|B) and
H(X|B), quantum relative entropy on the support of its second argument,
and the irreality of an observable (the entropy gained by dephasing the
state in that observable's eigenbasis), all of ``BipartiteState``s, whose
spectra their constructor checked. The entropy of a dephased state is
taken from its d_a diagonal d_b x d_b blocks in the measured frame
(``channels._blocks``) rather than from the dense dephased matrix.

Every entropy is one row of ``_entropies``, a vectorized pass over a
stack of spectra; ``shannon`` and ``vn_entropy`` are its one-row case.
``_configuration_entropies`` takes S(rho_B), S(rho) and the dephased
entropies of several stacks of density matrices and their spectra at
once, each with one basis shared by the stack or one per matrix: the
d_b x d_b slices of every stack with the same d_b take one stacked
eigendecomposition. ``cond_entropy``, ``uncertainty``, ``irreality`` and
``dephased_entropy`` read their state's row of a one-stack call.
"""

from __future__ import annotations

import math

import numpy as np

from . import linalg
from .channels import _blocks, _check_pair
from .errors import DimensionMismatch, InvariantViolation, NotDistribution
from .states import BipartiteState, ObservableBasis

EIG_CLIP = 1e-10
SUPPORT_CUTOFF = 1e-12
SUPPORT_LEAK_TOL = 1e-9
SUM_TOL = 1e-8


def _entropies(spectra: np.ndarray) -> np.ndarray:
    """-sum p_i ln p_i of each row of a ``(k, n)`` stack of spectra, in nats.

    Entries down to -1e-10 are clipped to 0, then each row is normalized
    by its sum; 0 ln 0 = 0. A row with an entry below -1e-10 raises
    ``InvariantViolation`` and a row whose sum is off 1 by more than 1e-8
    raises ``NotDistribution``, both naming the row. The rows are summed
    together, which gives each the bits of a lone row, but a row with a
    zero is summed again over its positive terms alone: their count sets
    numpy's pairwise grouping.
    """
    if spectra.min() < -EIG_CLIP:
        lows = spectra.min(axis=1)
        i = int(lows.argmin())
        raise InvariantViolation(f"row {i}: eigenvalue {lows[i]:.3e} below -{EIG_CLIP:.0e}")
    p = np.maximum(spectra, 0.0)
    totals = p.sum(axis=1)
    defects = np.abs(totals - 1.0)
    if defects.max() > SUM_TOL:
        i = int(defects.argmax())
        raise NotDistribution(f"row {i}: weights sum to {float(totals[i])!r}, not 1")
    p /= totals[:, None]
    positive = p > 0.0
    terms = p * np.log(np.where(positive, p, 1.0))
    h = 0.0 - terms.sum(axis=1)  # 0 - s is -s + 0.0: no -0.0
    if not positive.all():
        for i in np.flatnonzero(~positive.all(axis=1)):
            h[i] = 0.0 - terms[i][positive[i]].sum()
    return h


def shannon(p) -> float:
    """-sum p_i ln p_i with 0 ln 0 = 0; clips and renormalizes tiny noise, refuses non-finite weights."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise NotDistribution("expected a nonempty probability vector")
    if not np.isfinite(arr).all():
        raise NotDistribution(f"non-finite weight {arr[~np.isfinite(arr)][0]}")
    if arr.min() < -EIG_CLIP:
        raise NotDistribution(f"negative weight {arr.min():.3e} beyond tolerance")
    return float(_entropies(arr[None])[0])


def vn_entropy(rho: BipartiteState) -> float:
    """von Neumann entropy -Tr(rho ln rho) of a state, from its checked spectrum."""
    return float(_entropies(rho.spectrum[None])[0])


def cond_entropy(rho: BipartiteState) -> float:
    """Conditional entropy H(A|B) = S(rho_AB) - S(rho_B); negative values
    certify entanglement."""
    h_b, h_ab = _state_entropies([], rho)
    return h_ab - h_b


def relative_entropy(rho: BipartiteState, sigma: BipartiteState) -> float:
    """Quantum relative entropy Tr rho (ln rho - ln sigma) of two states, in nats.

    ``ln sigma`` is taken on the support of ``sigma`` (eigenvalues above
    1e-12); if ``rho`` carries more than 1e-9 weight outside that support
    the divergence is infinite and ``math.inf`` is returned.
    """
    r, s = rho.rho, sigma.rho
    if r.shape != s.shape:
        raise DimensionMismatch(f"operands of shape {r.shape} and {s.shape}")
    eig_s = linalg.herm_eig(s)
    on_support = eig_s.eigenvalues > SUPPORT_CUTOFF
    vecs = eig_s.eigenvectors[:, on_support]
    weights = np.einsum("ij,ik,kj->j", vecs.conj(), r, vecs).real
    leak = float(np.trace(r).real - weights.sum())
    if leak > SUPPORT_LEAK_TOL:
        return math.inf
    w_r = np.maximum(rho.spectrum, 0.0)
    pos = w_r[w_r > 0.0]
    tr_r_ln_r = float((pos * np.log(pos)).sum())
    tr_r_ln_s = float((weights * np.log(eig_s.eigenvalues[on_support])).sum())
    return tr_r_ln_r - tr_r_ln_s


def _marginals(rhos: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    """B marginal of each matrix ``m`` of a ``(k, d_a*d_b, d_a*d_b)`` stack.

    Each has the bits of ``np.einsum("ijik->jk", m.reshape(d_a, d_b, d_a, d_b))``.
    """
    return np.einsum("kijil->kjl", rhos.reshape(len(rhos), d_a, d_b, d_a, d_b))


def _configuration_entropies(passes) -> list[np.ndarray]:
    """[S(rho_B),] S(rho), then S(rho dephased in b) for each basis b, per matrix of each pass.

    A pass is ``(bases, d_a, rhos, spectra, marginals)``: a ``(k, n, n)``
    stack of density matrices sharing (d_a, n / d_a), their ascending
    ``(k, n)`` spectra, and basis vectors, each one ``(d_a, d_a)`` basis
    shared by every matrix or a ``(k, d_a, d_a)`` stack of one per matrix;
    S(rho_B) is left out when ``marginals`` is False. Returns one
    ``(k, [1 +] 1 + len(bases))`` array per pass. Each matrix's slices are
    its B marginal, then its d_a blocks in each basis (``_blocks``, each
    basis's frames built once); the slices of every pass with the same d_b
    take one ``linalg._stack_eigenvalues`` call, in pass order. Then per
    pass, S(rho) and the dephased entropies take one entropy pass and the
    marginals a second; the passes check every spectrum. Row i of a pass
    has the bits of matrix i alone.
    """
    slices, sizes = [], {}
    for bases, d_a, rhos, _, marginals in passes:
        for b in bases:
            _check_pair(b, d_a)
        d_b = rhos.shape[-1] // d_a
        parts = [_marginals(rhos, d_a, d_b)[:, None]] if marginals else []
        slices.append(np.concatenate(parts + [_blocks(b, rhos, d_a, d_b) for b in bases], axis=1))
        sizes.setdefault(d_b, []).append(len(slices) - 1)
    block_spectra = [None] * len(slices)
    for d_b, members in sizes.items():
        stacks = [slices[j].reshape(-1, d_b, d_b) for j in members]
        merged = linalg._stack_eigenvalues(stacks[0] if len(stacks) == 1 else np.concatenate(stacks))
        start = 0
        for j, stack in zip(members, stacks):
            block_spectra[j] = merged[start : start + len(stack)].reshape(len(slices[j]), -1)
            start += len(stack)
    rows = []
    for (_, d_a, _, spectra, marginals), found in zip(passes, block_spectra):
        k, n = spectra.shape
        d_b = n // d_a
        blocks = found[:, d_b:] if marginals else found
        joint = _entropies(np.concatenate([spectra, blocks], axis=1).reshape(-1, n)).reshape(k, -1)
        rows.append(np.column_stack([_entropies(found[:, :d_b]), joint]) if marginals else joint)
    return rows


def _state_entropies(bases, rho: BipartiteState) -> list[float]:
    """The row of ``_configuration_entropies`` for one state and its ``ObservableBasis``es."""
    vectors = [b.vectors for b in bases]
    return _configuration_entropies([(vectors, rho.d_a, rho.rho[None], rho.spectrum[None], True)])[0][0].tolist()


def dephased_entropy(x: ObservableBasis, rho: BipartiteState) -> float:
    """von Neumann entropy of the state dephased in the eigenbasis of ``x``.

    Equals ``vn_entropy(dephase(x, rho))``: the dephased state is block
    diagonal in the measured frame, so its spectrum is the union of the
    spectra of the d_a blocks p_i sigma_i (the joint-entropy theorem).
    """
    return _state_entropies([x], rho)[2]


def uncertainty(x: ObservableBasis, rho: BipartiteState) -> float:
    """Memory-assisted uncertainty H(X|B) = S(dephased state) - S(rho_B).

    Nonnegative (the dephased state is separable across the A:B cut); for
    d_b = 1 it reduces to the Shannon entropy of the outcome probabilities.
    """
    h_b, _, h_x = _state_entropies([x], rho)
    return h_x - h_b


def irreality(x: ObservableBasis, rho: BipartiteState) -> float:
    """Entropy gained by dephasing in the eigenbasis of ``x``.

    Vanishes exactly when the state is already invariant under that
    dephasing, i.e. when the observable is fully real for the state.
    """
    _, h_ab, h_x = _state_entropies([x], rho)
    return h_x - h_ab
