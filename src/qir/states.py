"""Bipartite density matrices and observable eigenbases.

Constructors cover the named states used throughout (maximally entangled,
maximally mixed, Schmidt-form pure states, the Werner family) and the two
random ensembles (Haar pure, induced mixed), plus computational, discrete
Fourier, and Haar-random bases. All random constructors take an explicit
seed and are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from ._rng import Seed, spawn_rng
from .errors import (
    BadDimension,
    ConfigError,
    DimensionMismatch,
    InvariantViolation,
    NotNormalized,
    OutOfRange,
)
from .linalg import HERMITICITY_TOL

TRACE_TOL = 1e-10
PSD_TOL = 1e-10
UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class BipartiteState:
    """Density matrix on system A (dim ``d_a``) and memory B (dim ``d_b``).

    Construction validates Hermiticity (defect <= 1e-10, then keeps the
    matrix's Hermitian part), unit trace (<= 1e-10), and positivity
    (smallest eigenvalue >= -1e-10), as ``_checked_stack`` on a stack of
    one. Each check runs once, and the kept matrix goes straight to
    ``linalg._stack_eigenvalues``. The eigenvalues found during validation
    are kept in ``spectrum`` (ascending), with the bits of
    ``herm_eig(rho)``; every entropy downstream needs only those.
    """

    d_a: int
    d_b: int
    rho: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rhos, spectra = _checked_stack(self.d_a, self.d_b, [self.rho])
        rho, spectrum = rhos[0], spectra[0]
        rho.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.d_a * self.d_b


def _checked_stack(d_a: int, d_b: int, matrices) -> tuple[np.ndarray, np.ndarray]:
    """The state constructor's checks on a ``(k, n, n)`` stack: Hermitian parts and ascending spectra.

    In order: dims, shape and finiteness (``linalg._as_operators``), dim,
    Hermiticity (defect <= 1e-10), trace, positivity (smallest eigenvalue
    >= -1e-10). Each check covers the whole stack before the next one runs
    and reports the worst matrix; the spectra take one stacked
    eigendecomposition, each with the bits of ``herm_eig``. The one checker
    of states: ``BipartiteState`` passes a stack of one.
    """
    if d_a < 2:
        raise BadDimension(f"d_a must be >= 2, got {d_a}")
    if d_b < 1:
        raise BadDimension(f"d_b must be >= 1, got {d_b}")
    ms = linalg._as_operators(matrices)
    if ms.shape[1] != d_a * d_b:
        raise DimensionMismatch(f"matrix dim {ms.shape[1]} != d_a*d_b = {d_a * d_b}")
    defect = np.abs(ms - np.swapaxes(ms.conj(), -1, -2)).max()
    if defect > HERMITICITY_TOL:
        raise InvariantViolation(f"({d_a}, {d_b}) state not Hermitian (defect {defect:.3e})")
    rhos = linalg._hermitian_part(ms)
    traces = np.trace(rhos, axis1=1, axis2=2)
    worst = int(np.abs(traces - 1.0).argmax())
    if abs(traces[worst] - 1.0) > TRACE_TOL:
        raise InvariantViolation(f"({d_a}, {d_b}) state trace {complex(traces[worst])!r} != 1")
    spectra = linalg._stack_eigenvalues(rhos)
    lowest = float(spectra[:, 0].min())
    if lowest < -PSD_TOL:
        raise InvariantViolation(
            f"({d_a}, {d_b}) state not positive semidefinite (min eigenvalue {lowest:.3e})"
        )
    return rhos, spectra


@dataclass(frozen=True, eq=False)
class ObservableBasis:
    """Orthonormal eigenbasis of a non-degenerate observable (columns), checked by ``_checked_bases``."""

    d: int
    vectors: np.ndarray

    def __post_init__(self):
        v = _checked_bases(self.d, [self.vectors])[0]
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)


def _checked_bases(d: int, vectors) -> np.ndarray:
    """The basis constructor's checks on a ``(k, d, d)`` stack of column bases; the checked stack.

    In order: shape and finiteness (``linalg._as_operators``), dim,
    orthonormality (largest entry of |V^dag V - 1| <= 1e-10 over the stack).
    The one checker of bases: ``ObservableBasis`` passes a stack of one.
    """
    v = linalg._as_operators(vectors)
    if v.shape[1] != d:
        raise DimensionMismatch(f"basis matrix dim {v.shape[1]} != d = {d}")
    defect = float(np.abs(np.swapaxes(v.conj(), -1, -2) @ v - np.eye(d)).max())
    if defect > UNITARITY_TOL:
        raise InvariantViolation(f"basis columns not orthonormal (defect {defect:.3e})")
    return v


def _pure(d_a: int, d_b: int, psi: np.ndarray) -> BipartiteState:
    return BipartiteState(d_a, d_b, np.outer(psi, psi.conj()))


def max_entangled(d: int) -> BipartiteState:
    """Maximally entangled pure state on d x d, amplitudes 1/sqrt(d) on |ii>."""
    if d < 2:
        raise BadDimension(f"need d >= 2, got {d}")
    psi = np.zeros(d * d, dtype=np.complex128)
    psi[np.arange(d) * d + np.arange(d)] = 1.0 / np.sqrt(d)
    return _pure(d, d, psi)


def max_mixed(d_a: int, d_b: int) -> BipartiteState:
    """Maximally mixed state, identity over the total dimension."""
    dim = d_a * d_b
    return BipartiteState(d_a, d_b, np.eye(dim, dtype=np.complex128) / dim)


def pure_from_schmidt(coeffs) -> BipartiteState:
    """Pure state sum_i c_i |ii> from nonnegative Schmidt coefficients."""
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1:
        raise NotNormalized("Schmidt coefficients must be a flat vector")
    if np.any(c < 0):
        raise NotNormalized("Schmidt coefficients must be nonnegative")
    total = float(np.sum(c * c))
    if abs(total - 1.0) > 1e-10:
        raise NotNormalized(f"sum of squared coefficients is {total!r}, not 1")
    d = len(c)
    psi = np.zeros(d * d, dtype=np.complex128)
    psi[np.arange(d) * d + np.arange(d)] = c
    return _pure(d, d, psi)


def werner(w: float) -> BipartiteState:
    """Convex mix of the d=2 maximally entangled and maximally mixed states.

    Spectrum is ((1+3w)/4, (1-w)/4 three-fold), so the state is positive
    exactly on 0 <= w <= 1 given the mixing convention used here.
    """
    w = float(w)
    if not 0.0 <= w <= 1.0:
        raise OutOfRange(f"werner weight must lie in [0, 1], got {w}")
    rho = w * max_entangled(2).rho + (1.0 - w) * np.eye(4) / 4.0
    return BipartiteState(2, 2, rho)


def haar_random_pure(d_a: int, d_b: int, seed: Seed) -> BipartiteState:
    """Pure state from the unitarily invariant measure; deterministic per seed."""
    if d_a < 2 or d_b < 1:
        raise BadDimension(f"need d_a >= 2 and d_b >= 1, got ({d_a}, {d_b})")
    return BipartiteState(d_a, d_b, _pure_densities(_ginibre(seed, d_a * d_b)[None])[0])


def random_mixed(d_a: int, d_b: int, rank_env: int, seed: Seed) -> BipartiteState:
    """Induced-measure mixed state: environment of dim ``rank_env`` traced out."""
    if d_a < 2 or d_b < 1:
        raise BadDimension(f"need d_a >= 2 and d_b >= 1, got ({d_a}, {d_b})")
    if rank_env < 1:
        raise BadDimension(f"rank_env must be >= 1, got {rank_env}")
    return BipartiteState(d_a, d_b, _induced_densities(_ginibre(seed, (d_a * d_b, rank_env))[None])[0])


def _ginibre(seed: Seed, shape) -> np.ndarray:
    """A complex Gaussian array of ``shape`` from the stream of ``seed``: its real parts, then its imaginary parts.

    The stream layout of every random constructor; the helpers below turn
    a ``(k, ...)`` stack of such draws into what the constructors check,
    each slice with the bits of the constructor's own draw, so that a
    campaign can draw trial by trial and check and diagonalize as stacks.
    """
    rng = spawn_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _pure_densities(z: np.ndarray) -> np.ndarray:
    """|psi><psi| with psi = z / |z| for each row of a ``(k, n)`` stack: ``haar_random_pure``'s matrices, unchecked."""
    norms = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))  # np.linalg.norm's bits
    psi = z / norms[:, None]
    return psi[:, :, None] * psi.conj()[:, None, :]  # np.outer's one broadcast multiply


def _induced_densities(z: np.ndarray) -> np.ndarray:
    """z z^dag / Tr(z z^dag) for each ``(n, r)`` slice of a ``(k, n, r)`` stack: ``random_mixed``'s matrices, unchecked."""
    rho = z @ np.swapaxes(z.conj(), -1, -2)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _haar_bases(z: np.ndarray) -> np.ndarray:
    """The Q of each ``(d, d)`` slice's QR with the phase fix, from one stacked ``np.linalg.qr``: ``random_basis``'s vectors, unchecked."""
    q, r = np.linalg.qr(z)
    return _phase_fixed(q, np.diagonal(r, axis1=-2, axis2=-1))


def _phase_fixed(q: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Each Q's columns times the phases of the diagonal of its R, which makes Q Haar-distributed (Mezzadri 2007)."""
    return q * (diag / np.abs(diag))[..., None, :]


def computational_basis(d: int) -> ObservableBasis:
    if d < 2:
        raise BadDimension(f"need d >= 2, got {d}")
    return ObservableBasis(d, np.eye(d, dtype=np.complex128))


def fourier_basis(d: int) -> ObservableBasis:
    """Discrete Fourier basis; mutually unbiased with the computational one."""
    if d < 2:
        raise BadDimension(f"need d >= 2, got {d}")
    jk = np.outer(np.arange(d), np.arange(d))
    return ObservableBasis(d, np.exp(2j * np.pi * jk / d) / np.sqrt(d))


def random_basis(d: int, seed: Seed) -> ObservableBasis:
    """Haar-random basis: QR of a Ginibre matrix with the phase-fix correction."""
    if d < 2:
        raise BadDimension(f"need d >= 2, got {d}")
    return ObservableBasis(d, _haar_bases(_ginibre(seed, (d, d))[None])[0])


def state_from_token(token: str) -> BipartiteState:
    """Build a named state from a string token.

    Supported: ``bell:d``, ``mixed:dA,dB``, ``werner:w``, ``haar:dA,dB,seed``.
    """
    kind, _, arg = token.partition(":")
    try:
        if kind == "bell":
            return max_entangled(int(arg))
        if kind == "mixed":
            d_a, d_b = (int(s) for s in arg.split(","))
            return max_mixed(d_a, d_b)
        if kind == "werner":
            return werner(float(arg))
        if kind == "haar":
            d_a, d_b, seed = (int(s) for s in arg.split(","))
            return haar_random_pure(d_a, d_b, seed)
    except (ValueError, BadDimension, OutOfRange) as exc:
        raise ConfigError(f"bad state token {token!r}: {exc}") from exc
    raise ConfigError(f"unknown state token {token!r}")


def basis_from_token(token: str) -> ObservableBasis:
    """Build a named basis from a string token.

    Supported: ``comp:d``, ``fourier:d``, ``haar:d,seed``.
    """
    kind, _, arg = token.partition(":")
    try:
        if kind == "comp":
            return computational_basis(int(arg))
        if kind == "fourier":
            return fourier_basis(int(arg))
        if kind == "haar":
            d, seed = (int(s) for s in arg.split(","))
            return random_basis(d, seed)
    except (ValueError, BadDimension) as exc:
        raise ConfigError(f"bad basis token {token!r}: {exc}") from exc
    raise ConfigError(f"unknown basis token {token!r}")
