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

from .channels import _monitor_grid
from .entropies import _configuration_entropies
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
    return _bundles([(
        x.vectors, None if y is None else y.vectors, rho.d_a, rho.rho[None], rho.spectrum[None],
        None if eps is None else [eps],
    )])[0][0]


def _bundles(groups) -> list[list[EntropyBundle]]:
    """The ``EntropyBundle`` of each configuration of each group, with one ``_configuration_entropies`` call.

    A group is ``(x, y, d_a, rhos, spectra, eps)``: the ``(k, n, n)``
    matrices and ``(k, n)`` spectra of checked states sharing (d_a, n / d_a),
    basis vectors ``x`` and ``y`` (None for no Y side), each one
    ``(d_a, d_a)`` basis shared by every state or a ``(k, d_a, d_a)`` stack
    of one per state, and ``eps``, None or k strengths (then ``y`` is
    given), which adds irr(X) of each state monitored by its Y at its
    strength, from ``rhos`` alone (``_monitor_grid``; only the X blocks of
    a monitored state are read). Returns one list of k bundles per group;
    bundle i of a group has the bits of the bundle of its configuration alone.
    """
    passes = []
    for x, y, d_a, rhos, spectra, eps in groups:
        passes.append(([x] if y is None else [x, y], d_a, rhos, spectra, True))
        if eps is not None:
            passes.append(([x], d_a, *_monitor_grid(y, eps, d_a, rhos), False))
    rows = iter(_configuration_entropies(passes))
    bundles = []
    for x, y, _, rhos, _, eps in groups:
        k = len(rhos)
        table = next(rows).tolist()
        if eps is not None:
            monitored = next(rows)
            irr_monitored = (monitored[:, 1] - monitored[:, 0]).tolist()
        qs = [None] * k if y is None else [
            -2.0 * math.log(c) for c in np.broadcast_to(_overlaps(x, y), (k,)).tolist()
        ]
        group = []
        for i, (h_b, h_ab, h_xb, *y_side) in enumerate(table):
            h_yb = y_side[0] if y_side else None
            group.append(EntropyBundle(
                h_ab=h_ab,
                h_b=h_b,
                h_x_given_b=h_xb - h_b,
                irreality_x=h_xb - h_ab,
                h_y_given_b=None if h_yb is None else h_yb - h_b,
                irreality_y=None if h_yb is None else h_yb - h_ab,
                q=qs[i],
                irreality_x_monitored=None if eps is None else irr_monitored[i],
            ))
        bundles.append(group)
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
