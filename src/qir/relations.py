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

with q = -2 ln c the maximum-overlap bound for the basis pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .channels import monitor
from .entropies import _configuration_entropies
from .errors import ConfigError, DimensionMismatch, InvariantViolation
from .states import BipartiteState, ObservableBasis

DEFAULT_TOL = 1e-9


def mu_overlap(x: ObservableBasis, y: ObservableBasis) -> float:
    """Largest overlap modulus c = max_ij |<x_i|y_j>| of two bases."""
    if x.d != y.d:
        raise DimensionMismatch(f"basis dims {x.d} and {y.d} differ")
    return float(np.abs(x.vectors.conj().T @ y.vectors).max())


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
    """Absolute residual of an equality that should hold exactly."""

    name: str
    residual: float
    tol: float
    holds: bool = field(init=False)

    def __post_init__(self):
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
    """Every entropy of the configuration, from one ``_configuration_entropies`` call.

    The call covers ``rho`` and, when ``eps`` is given, ``monitor(y, eps, rho)``.
    """
    states = [rho] if eps is None else [rho, monitor(y, eps, rho)]
    rows = _configuration_entropies([x] if y is None else [x, y], states).tolist()
    h_b, h_ab, h_xb, *y_side = rows[0]
    h_yb = y_side[0] if y_side else None
    return EntropyBundle(
        h_ab=h_ab,
        h_b=h_b,
        h_x_given_b=h_xb - h_b,
        irreality_x=h_xb - h_ab,
        h_y_given_b=None if h_yb is None else h_yb - h_b,
        irreality_y=None if h_yb is None else h_yb - h_ab,
        q=None if y is None else mu_bound(x, y),
        irreality_x_monitored=None if eps is None else rows[1][2] - rows[1][1],
    )


class Relation(NamedTuple):
    """One row of the relation table.

    ``fn`` takes the configuration's ``EntropyBundle`` and returns the
    residual of an identity or the (lhs, rhs) of an inequality lhs >= rhs.
    A row that ``needs_eps`` reads the bundle's ``irreality_x_monitored``.
    """

    name: str
    kind: str  # "identity" | "inequality"
    needs_eps: bool
    fn: Callable[[EntropyBundle], float | tuple[float, float]]


def _max_gap(*values: float) -> float:
    """Largest pairwise difference; 0 exactly when all values are equal."""
    return max(abs(u - v) for u, v in combinations(values, 2))


RELATIONS: dict[str, Relation] = {
    row.name: row
    for row in (
        Relation("eq5", "inequality", False,
                 lambda b: (b.h_x_given_b + b.h_y_given_b, b.q + b.h_a_given_b)),
        Relation("eq7", "identity", False,
                 lambda b: abs(b.irreality_x - (b.h_x_given_b - b.h_a_given_b))),
        Relation("eq8", "identity", False,
                 lambda b: _max_gap(b.h_x_given_b - b.irreality_x,
                                    b.h_y_given_b - b.irreality_y, b.h_a_given_b)),
        Relation("eq9", "inequality", False,
                 lambda b: (b.irreality_x + b.h_y_given_b, b.q)),
        Relation("eq10", "inequality", False,
                 lambda b: (b.irreality_x + b.irreality_y, b.q - b.h_a_given_b)),
        Relation("eq11", "inequality", False,
                 lambda b: (b.h_x_given_b + b.irreality_x + b.h_y_given_b + b.irreality_y,
                            2.0 * b.q)),
        Relation("eq16", "inequality", True,
                 lambda b: (b.irreality_x_monitored + b.h_y_given_b, b.q)),
    )
}


def check_memory_ur(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """eq5, the memory-assisted uncertainty relation."""
    return evaluate_point("eq5", x, y, rho, tol=tol)


def check_constraint1(
    x: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> IdentityReport:
    """eq7, the linear constraint (an identity)."""
    return evaluate_point("eq7", x, None, rho, tol=tol)


def check_constraint2(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> IdentityReport:
    """eq8, the cross constraint (an identity)."""
    return evaluate_point("eq8", x, y, rho, tol=tol)


def check_mixed_ur(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> tuple[InequalityReport, InequalityReport]:
    """eq9, the mixed uncertainty/irreality bound, and ``eq9_swapped``, H(X|B) + irr(Y) >= q."""
    b = _bundle(x, y, rho)
    eq9 = _reports([RELATIONS["eq9"]], b, tol)["eq9"]
    return eq9, InequalityReport("eq9_swapped", b.h_x_given_b + b.irreality_y, b.q, tol)


def check_irreality_ur(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """eq10, the two-observable irreality bound."""
    return evaluate_point("eq10", x, y, rho, tol=tol)


def check_combined_ur(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """eq11, the combined four-term bound."""
    return evaluate_point("eq11", x, y, rho, tol=tol)


def check_monitor_bound(
    x: ObservableBasis,
    y: ObservableBasis,
    eps: float,
    rho: BipartiteState,
    tol: float = DEFAULT_TOL,
) -> InequalityReport:
    """eq16, the monitored irreality bound, at monitoring strength ``eps``.

    H(Y|B) is evaluated on the original state; monitoring by Y leaves it
    unchanged, so this matches evaluating everything on the monitored state.
    """
    return evaluate_point("eq16", x, y, rho, eps=eps, tol=tol)


def lookup_relation(name: str) -> Relation:
    """The table row of ``name``; ``ConfigError`` for an unknown name."""
    row = RELATIONS.get(name)
    if row is None:
        raise ConfigError(f"unknown relation {name!r}; choices: {sorted(RELATIONS)}")
    return row


def report_slack(report: Report) -> float:
    """Uniform signed slack: inequalities as-is, identities as -residual."""
    if isinstance(report, InequalityReport):
        return report.slack
    return -report.residual


def evaluate_relations(
    names,
    x: ObservableBasis,
    y: ObservableBasis | None,
    rho: BipartiteState,
    eps: float | None = None,
    tol: float = DEFAULT_TOL,
) -> dict[str, Report]:
    """Evaluate the named relations on one configuration, sharing entropies.

    ``eps`` is required iff one of the names needs a monitoring strength,
    and is used only then. Every entropy comes from one bundle, taken on
    ``rho`` and, for such a name, on ``rho`` monitored by Y at ``eps``.
    """
    rows = [lookup_relation(name) for name in names]
    monitored = [row.name for row in rows if row.needs_eps]
    if monitored and eps is None:
        raise ConfigError(f"relation {monitored[0]} needs a monitoring strength eps")
    return _reports(rows, _bundle(x, y, rho, eps if monitored else None), tol)


def _reports(rows, bundle: EntropyBundle, tol: float) -> dict[str, Report]:
    """The report of each relation row on one bundle, by name."""
    return {
        row.name: IdentityReport(row.name, row.fn(bundle), tol) if row.kind == "identity"
        else InequalityReport(row.name, *row.fn(bundle), tol)
        for row in rows
    }


def evaluate_point(
    relation: str,
    x: ObservableBasis,
    y: ObservableBasis | None,
    rho: BipartiteState,
    eps: float | None = None,
    tol: float = DEFAULT_TOL,
) -> Report:
    """Evaluate a single relation on a fully specified configuration."""
    return evaluate_relations([relation], x, y, rho, eps=eps, tol=tol)[relation]
