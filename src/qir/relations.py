"""The identity and inequality suite, each evaluated with signed slack.

Relations are addressed by short registry names (``eq5`` ... ``eq16``),
which are also the tokens the CLI and campaign configs accept:

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

import numpy as np

from .channels import monitor
from .entropies import dephased_entropy, irreality, vn_entropy
from .errors import ConfigError, DimensionMismatch
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
    """Entropies of one (state, X[, Y]) configuration, shared by the checks."""

    h_ab: float
    h_b: float
    h_x_given_b: float
    irreality_x: float
    h_y_given_b: float | None = None
    irreality_y: float | None = None
    q: float | None = None

    @property
    def h_a_given_b(self) -> float:
        return self.h_ab - self.h_b


def entropy_bundle(
    x: ObservableBasis, rho: BipartiteState, y: ObservableBasis | None = None
) -> EntropyBundle:
    """Evaluate the shared entropies once; the Y side only when ``y`` is given."""
    h_ab = vn_entropy(rho)
    h_b = vn_entropy(rho.reduced_b())
    h_xb = dephased_entropy(x, rho)
    h_yb = dephased_entropy(y, rho) if y is not None else None
    return EntropyBundle(
        h_ab=h_ab,
        h_b=h_b,
        h_x_given_b=h_xb - h_b,
        irreality_x=h_xb - h_ab,
        h_y_given_b=None if h_yb is None else h_yb - h_b,
        irreality_y=None if h_yb is None else h_yb - h_ab,
        q=None if y is None else mu_bound(x, y),
    )


def _eq5(b: EntropyBundle, tol: float) -> InequalityReport:
    return InequalityReport("eq5", b.h_x_given_b + b.h_y_given_b, b.q + b.h_a_given_b, tol)


def _eq7(b: EntropyBundle, tol: float) -> IdentityReport:
    residual = abs(b.irreality_x - (b.h_x_given_b - b.h_a_given_b))
    return IdentityReport("eq7", residual, tol)


def _eq8(b: EntropyBundle, tol: float) -> IdentityReport:
    side_x = b.h_x_given_b - b.irreality_x
    side_y = b.h_y_given_b - b.irreality_y
    residual = max(
        abs(side_x - side_y),
        abs(side_x - b.h_a_given_b),
        abs(side_y - b.h_a_given_b),
    )
    return IdentityReport("eq8", residual, tol)


def _eq9(b: EntropyBundle, tol: float) -> InequalityReport:
    return InequalityReport("eq9", b.irreality_x + b.h_y_given_b, b.q, tol)


def _eq9_swapped(b: EntropyBundle, tol: float) -> InequalityReport:
    return InequalityReport("eq9_swapped", b.h_x_given_b + b.irreality_y, b.q, tol)


def _eq10(b: EntropyBundle, tol: float) -> InequalityReport:
    return InequalityReport("eq10", b.irreality_x + b.irreality_y, b.q - b.h_a_given_b, tol)


def _eq11(b: EntropyBundle, tol: float) -> InequalityReport:
    lhs = b.h_x_given_b + b.irreality_x + b.h_y_given_b + b.irreality_y
    return InequalityReport("eq11", lhs, 2.0 * b.q, tol)


def _eq16(b: EntropyBundle, irreality_x_monitored: float, tol: float) -> InequalityReport:
    return InequalityReport("eq16", irreality_x_monitored + b.h_y_given_b, b.q, tol)


def check_memory_ur(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """H(X|B) + H(Y|B) >= q + H(A|B)."""
    return _eq5(entropy_bundle(x, rho, y), tol)


def check_constraint1(
    x: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> IdentityReport:
    """Identity irr(X) = H(X|B) - H(A|B)."""
    return _eq7(entropy_bundle(x, rho), tol)


def check_constraint2(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> IdentityReport:
    """Identity H(X|B) - irr(X) = H(Y|B) - irr(Y), both sides H(A|B)."""
    return _eq8(entropy_bundle(x, rho, y), tol)


def check_mixed_ur(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> tuple[InequalityReport, InequalityReport]:
    """irr(X) + H(Y|B) >= q, in both orderings (equal left sides)."""
    b = entropy_bundle(x, rho, y)
    return _eq9(b, tol), _eq9_swapped(b, tol)


def check_irreality_ur(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """irr(X) + irr(Y) >= q - H(A|B)."""
    return _eq10(entropy_bundle(x, rho, y), tol)


def check_combined_ur(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, tol: float = DEFAULT_TOL
) -> InequalityReport:
    """H(X|B) + irr(X) + H(Y|B) + irr(Y) >= 2q."""
    return _eq11(entropy_bundle(x, rho, y), tol)


def check_monitor_bound(
    x: ObservableBasis,
    y: ObservableBasis,
    eps: float,
    rho: BipartiteState,
    tol: float = DEFAULT_TOL,
) -> InequalityReport:
    """irr(X | state monitored by Y at strength eps) + H(Y|B) >= q.

    H(Y|B) is evaluated on the original state; monitoring by Y leaves it
    unchanged, so this matches evaluating everything on the monitored state.
    """
    b = entropy_bundle(x, rho, y)
    return _eq16(b, irreality(x, monitor(y, eps, rho)), tol)


def reality_change(
    x: ObservableBasis, rho_before: BipartiteState, rho_after: BipartiteState
) -> float:
    """Drop in irreality of ``x`` from ``rho_before`` to ``rho_after``.

    Positive values mean the observable became more real; the matching
    irreality change is exactly the negative of this number.
    """
    if rho_before.d_a != rho_after.d_a or rho_before.d_b != rho_after.d_b:
        raise DimensionMismatch("states live on different dimensions")
    return irreality(x, rho_before) - irreality(x, rho_after)


@dataclass(frozen=True)
class RelationInfo:
    name: str
    kind: str  # "identity" | "inequality"
    needs_eps: bool
    description: str


RELATIONS: dict[str, RelationInfo] = {
    info.name: info
    for info in (
        RelationInfo("eq5", "inequality", False, "memory-assisted uncertainty bound"),
        RelationInfo("eq7", "identity", False, "linear constraint irr(X) = H(X|B) - H(A|B)"),
        RelationInfo("eq8", "identity", False, "cross constraint, both sides H(A|B)"),
        RelationInfo("eq9", "inequality", False, "mixed uncertainty/irreality bound"),
        RelationInfo("eq10", "inequality", False, "two-observable irreality bound"),
        RelationInfo("eq11", "inequality", False, "combined four-term bound"),
        RelationInfo("eq16", "inequality", True, "monitored irreality bound"),
    )
}

INEQUALITY_NAMES = tuple(n for n, i in RELATIONS.items() if i.kind == "inequality")


def report_slack(report: Report) -> float:
    """Uniform signed slack: inequalities as-is, identities as -residual."""
    if isinstance(report, InequalityReport):
        return report.slack
    return -report.residual


def evaluate_relations(
    names,
    x: ObservableBasis,
    y: ObservableBasis,
    rho: BipartiteState,
    eps: float | None = None,
    tol: float = DEFAULT_TOL,
    bundle: EntropyBundle | None = None,
) -> dict[str, Report]:
    """Evaluate the named relations on one configuration, sharing entropies.

    ``eps`` is required iff one of the names needs a monitoring strength.
    A caller that already holds ``entropy_bundle(x, rho, y)`` may pass it
    as ``bundle`` to skip evaluating it again.
    """
    names = list(names)
    for name in names:
        if name not in RELATIONS:
            raise ConfigError(f"unknown relation {name!r}; choices: {sorted(RELATIONS)}")
    if bundle is None:
        bundle = entropy_bundle(x, rho, y)
    reports: dict[str, Report] = {}
    for name in names:
        if name == "eq5":
            reports[name] = _eq5(bundle, tol)
        elif name == "eq7":
            reports[name] = _eq7(bundle, tol)
        elif name == "eq8":
            reports[name] = _eq8(bundle, tol)
        elif name == "eq9":
            reports[name] = _eq9(bundle, tol)
        elif name == "eq10":
            reports[name] = _eq10(bundle, tol)
        elif name == "eq11":
            reports[name] = _eq11(bundle, tol)
        elif name == "eq16":
            if eps is None:
                raise ConfigError("relation eq16 needs a monitoring strength eps")
            reports[name] = _eq16(bundle, irreality(x, monitor(y, eps, rho)), tol)
    return reports
