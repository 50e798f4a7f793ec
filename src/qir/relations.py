"""The identity and inequality suite, each evaluated with signed slack.

Each relation is one row of the ``RELATIONS`` table, addressed by its name
(``eq5`` ... ``eq16``), which is also the token the CLI and campaign
configs accept:

    eq5   H(X|B) + H(Y|B) >= q + H(A|B)      memory-assisted uncertainty
    eq7   irr(X) = H(X|B) - H(A|B)           linear constraint (identity)
    eq8   H(X|B) - irr(X) = H(Y|B) - irr(Y)  cross constraint (identity)
    eq9   irr(X) + H(Y|B) >= q               mixed uncertainty/irreality
    eq10  irr(X) + irr(Y) >= q - H(A|B)      two-observable irreality
    eq11  sum of all four terms >= 2q        combined four-term bound
    eq16  irr(X | monitored by Y) + H(Y|B) >= q

with q = -2 ln c the maximum-overlap bound for the basis pair. eq9 with X
and Y exchanged is the swapped ordering, H(X|B) + irr(Y) >= q.

``evaluate_relations`` is the one way to evaluate them: it takes the
names, one configuration (state, X, Y and, for eq16, a strength eps) and
returns a report per name, all from one ``EntropyBundle``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import linalg
from .channels import _monitor_grid
from .entropies import _configuration_blocks, _spectra_entropies
from .errors import ConfigError, DimensionMismatch, InvariantViolation
from .states import BipartiteState, ObservableBasis

DEFAULT_TOL = 1e-9


def mu_overlap(x: ObservableBasis, y: ObservableBasis) -> float:
    """Largest overlap modulus c = max_ij |<x_i|y_j>| of two bases."""
    if x.d != y.d:
        raise DimensionMismatch(f"basis dims {x.d} and {y.d} differ")
    return float(_overlaps(x.vectors, y.vectors))


def _overlaps(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """max_ij |<x_i|y_j>| of each pair of bases from the ``(..., d, d)`` vector stacks ``x`` and ``y``."""
    return np.abs(np.swapaxes(x.conj(), -1, -2) @ y).max(axis=(-2, -1))


def mu_bound(x: ObservableBasis, y: ObservableBasis) -> float:
    """State-independent uncertainty floor q = -2 ln c, in nats.

    Ranges from 0 (shared eigenvector) to ln d (mutually unbiased pair).
    """
    return -2.0 * math.log(mu_overlap(x, y))


@dataclass(frozen=True)
class InequalityReport:
    """lhs >= rhs verdict with signed slack = lhs - rhs."""

    name: str
    lhs: float
    rhs: float
    tol: float
    slack: float = field(init=False)
    satisfied: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "slack", self.lhs - self.rhs)
        object.__setattr__(self, "satisfied", self.slack >= -self.tol)


@dataclass(frozen=True)
class IdentityReport:
    """Absolute residual of an equality that should hold exactly; signed slack = -residual (-0.0 at zero)."""

    name: str
    residual: float
    tol: float
    slack: float = field(init=False)
    holds: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "slack", -self.residual)
        object.__setattr__(self, "holds", self.residual <= self.tol)


Report = InequalityReport | IdentityReport


@dataclass(frozen=True)
class EntropyBundle:
    """Entropies of one (state, X[, Y][, eps]) configuration, in nats.

    The Y side and ``q`` are None when no second basis is given;
    ``irreality_x_monitored``, irr(X) of the state monitored by Y at
    strength eps, is None when no eps is given. H(X|B) and irr(X), and
    each of the others when present, are checked to be at least -1e-9.
    """

    h_ab: float
    h_b: float
    h_x_given_b: float
    irreality_x: float
    h_y_given_b: float | None = None
    irreality_y: float | None = None
    q: float | None = None
    irreality_x_monitored: float | None = None

    def __post_init__(self):
        for label, value in (
            ("H(X|B)", self.h_x_given_b),
            ("irreality of X", self.irreality_x),
            ("H(Y|B)", self.h_y_given_b),
            ("irreality of Y", self.irreality_y),
            ("irreality of monitored X", self.irreality_x_monitored),
        ):
            if value is not None and value < -1e-9:
                raise InvariantViolation(f"{label} {value:.3e} below -1e-9")

    @property
    def h_a_given_b(self) -> float:
        return self.h_ab - self.h_b


def entropy_bundle(
    x: ObservableBasis, rho: BipartiteState, y: ObservableBasis | None = None
) -> EntropyBundle:
    """Evaluate the shared entropies once; the Y side only when ``y`` is given."""
    return _bundle(x, y, rho)


def _bundle(
    x: ObservableBasis, y: ObservableBasis | None, rho: BipartiteState, eps: float | None = None
) -> EntropyBundle:
    """Every entropy of one configuration: the one-row case of ``_bundles``."""
    return _bundles(
        x.vectors, None if y is None else y.vectors, rho.d_a, rho.rho[None], rho.spectrum[None],
        None if eps is None else [eps],
    )[0]


def _bundles(
    x: np.ndarray,
    y: np.ndarray | None,
    d_a: int,
    rhos: np.ndarray,
    spectra: np.ndarray,
    eps=None,
) -> list[EntropyBundle]:
    """The ``EntropyBundle`` of each of k configurations, with one stacked eigendecomposition of their slices.

    ``rhos`` and ``spectra`` are the ``(k, n, n)`` matrices and ``(k, n)``
    spectra of checked states sharing (d_a, n / d_a). ``x`` and ``y`` (None
    for no Y side) are basis vectors: one ``(d_a, d_a)`` basis shared by
    every state, or a ``(k, d_a, d_a)`` stack of one per state. ``eps``,
    None or k strengths (then ``y`` is given), adds irr(X) of each state
    monitored by its Y at its strength. Its two phases, ``_bundle_slices``
    and ``_bundles_from_spectra``, are apart so that a campaign chunk can
    diagonalize the slices of all its groups with the same d_b in one call.
    Bundle i has the bits of the bundle of configuration i alone.
    """
    full, slices = _bundle_slices(x, y, d_a, rhos, spectra, eps)
    return _bundles_from_spectra(x, y, eps, full, linalg._stack_eigenvalues(slices))


def _bundle_slices(x, y, d_a: int, rhos: np.ndarray, spectra: np.ndarray, eps=None):
    """Phase one of ``_bundles``: the full spectra its entropies read, and its ``(m, d_b, d_b)`` slices.

    The spectra are the states', then with ``eps`` those of the states
    monitored by Y (``_monitor_grid``). The slices are each state's B
    marginal and its X and Y blocks (``_configuration_blocks``), then with
    ``eps`` each monitored state's X blocks alone: irr(X) of the monitored
    state is all that a relation reads of it.
    """
    if eps is not None:
        monitored, monitored_spectra = _monitor_grid(y, eps, d_a, rhos, spectra)
    blocks = _configuration_blocks([x] if y is None else [x, y], d_a, rhos)
    d_b = blocks.shape[-1]
    if eps is None:
        return spectra, blocks.reshape(-1, d_b, d_b)
    monitored_blocks = _configuration_blocks([x], d_a, monitored, marginals=False)
    return (np.concatenate([spectra, monitored_spectra]),
            np.concatenate([blocks.reshape(-1, d_b, d_b), monitored_blocks.reshape(-1, d_b, d_b)]))


def _bundles_from_spectra(x, y, eps, spectra: np.ndarray, block_spectra: np.ndarray) -> list[EntropyBundle]:
    """Phase two of ``_bundles``: the bundles from phase one's spectra and the ``(m, d_b)`` ascending spectra of its slices."""
    k = len(spectra) if eps is None else len(spectra) // 2
    n, d_b = spectra.shape[1], block_spectra.shape[1]
    m = k * (1 + (n // d_b) * (1 if y is None else 2))  # the states' slices, then the monitored states'
    rows = _spectra_entropies(spectra[:k], block_spectra[:m].reshape(k, -1), d_b).tolist()
    if eps is not None:
        monitored = _spectra_entropies(spectra[k:], block_spectra[m:].reshape(k, -1), d_b, marginals=False)
        irr_monitored = (monitored[:, 1] - monitored[:, 0]).tolist()
    qs = [None] * k if y is None else [
        -2.0 * math.log(c) for c in np.broadcast_to(_overlaps(x, y), (k,)).tolist()
    ]
    bundles = []
    for i in range(k):
        h_b, h_ab, h_xb, *y_side = rows[i]
        h_yb = y_side[0] if y_side else None
        bundles.append(EntropyBundle(
            h_ab=h_ab,
            h_b=h_b,
            h_x_given_b=h_xb - h_b,
            irreality_x=h_xb - h_ab,
            h_y_given_b=None if h_yb is None else h_yb - h_b,
            irreality_y=None if h_yb is None else h_yb - h_ab,
            q=qs[i],
            irreality_x_monitored=None if eps is None else irr_monitored[i],
        ))
    return bundles


class Relation(NamedTuple):
    """One row of the relation table.

    ``fn`` takes the configuration's ``EntropyBundle`` and returns the
    residual of an identity or the (lhs, rhs) of an inequality lhs >= rhs.
    A row that ``needs_y`` reads the Y side of the bundle, and one that
    ``needs_eps`` its ``irreality_x_monitored``.
    """

    name: str
    kind: str  # "identity" | "inequality"
    needs_y: bool
    needs_eps: bool
    fn: Callable[[EntropyBundle], float | tuple[float, float]]


def _max_gap(*values: float) -> float:
    """Largest pairwise difference; 0 exactly when all values are equal."""
    return max(abs(u - v) for u, v in combinations(values, 2))


RELATIONS: dict[str, Relation] = {
    row.name: row
    for row in (
        Relation("eq5", "inequality", True, False,
                 lambda b: (b.h_x_given_b + b.h_y_given_b, b.q + b.h_a_given_b)),
        Relation("eq7", "identity", False, False,
                 lambda b: abs(b.irreality_x - (b.h_x_given_b - b.h_a_given_b))),
        Relation("eq8", "identity", True, False,
                 lambda b: _max_gap(b.h_x_given_b - b.irreality_x,
                                    b.h_y_given_b - b.irreality_y, b.h_a_given_b)),
        Relation("eq9", "inequality", True, False,
                 lambda b: (b.irreality_x + b.h_y_given_b, b.q)),
        Relation("eq10", "inequality", True, False,
                 lambda b: (b.irreality_x + b.irreality_y, b.q - b.h_a_given_b)),
        Relation("eq11", "inequality", True, False,
                 lambda b: (b.h_x_given_b + b.irreality_x + b.h_y_given_b + b.irreality_y,
                            2.0 * b.q)),
        Relation("eq16", "inequality", True, True,
                 lambda b: (b.irreality_x_monitored + b.h_y_given_b, b.q)),
    )
}


def lookup_relation(name: str) -> Relation:
    """The table row of ``name``; ``ConfigError`` for an unknown name."""
    row = RELATIONS.get(name)
    if row is None:
        raise ConfigError(f"unknown relation {name!r}; choices: {sorted(RELATIONS)}")
    return row


def _check_tol(tol: float) -> None:
    """``ConfigError`` unless ``tol`` is positive and finite: any other tolerance passes or fails every verdict."""
    if not 0 < tol < math.inf:
        raise ConfigError(f"tol must be positive and finite, got {tol}")


def evaluate_relations(
    names,
    x: ObservableBasis,
    y: ObservableBasis | None,
    rho: BipartiteState,
    eps: float | None = None,
    tol: float = DEFAULT_TOL,
) -> dict[str, Report]:
    """Evaluate the named relations on one configuration, sharing entropies.

    ``y`` is required iff one of the names reads Y (all but eq7), and
    ``eps`` iff one needs a monitoring strength; ``eps`` is used only then.
    A missing one raises ``ConfigError`` naming the first such relation, as
    does a ``tol`` that is not positive and finite, before any entropy is
    taken. Every entropy comes from one bundle, taken on ``rho`` and, for a
    monitoring name, on ``rho`` monitored by Y at ``eps``. Every report
    carries its signed ``slack``.
    """
    _check_tol(tol)
    rows = [lookup_relation(name) for name in names]
    for row in rows:
        if row.needs_y and y is None:
            raise ConfigError(f"relation {row.name} needs a second basis y")
        if row.needs_eps and eps is None:
            raise ConfigError(f"relation {row.name} needs a monitoring strength eps")
    monitored = any(row.needs_eps for row in rows)
    return _reports(rows, _bundle(x, y, rho, eps if monitored else None), tol)


def _reports(rows, bundle: EntropyBundle, tol: float) -> dict[str, Report]:
    """The report of each relation row on one bundle, by name."""
    return {
        row.name: IdentityReport(row.name, row.fn(bundle), tol) if row.kind == "identity"
        else InequalityReport(row.name, *row.fn(bundle), tol)
        for row in rows
    }
