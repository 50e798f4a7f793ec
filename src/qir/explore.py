"""Verification campaigns, monitoring sweeps, and extremal-slack search.

Campaigns evaluate a set of relations over random ensembles with a
deterministic per-trial stream layout. Trial ``i`` of a campaign seeded
with ``s`` draws its state and its two bases from
``SeedSequence(entropy=(s, i, role))`` with roles 0, 1 and 2, and its
monitoring strength from ``SeedSequence(entropy=s, spawn_key=(i, 3))``;
the two constructions give different streams, so a reimplementation must
follow both. Results are identical for any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .channels import _monitor_grid
from .entropies import _configuration_entropies
from .errors import (
    BadDimension,
    ConfigError,
    InvariantViolation,
    OutOfRange,
    QirError,
    TheoremViolation,
)
from ._rng import spawn_rng
from .relations import (
    DEFAULT_TOL,
    RELATIONS,
    evaluate_relations,
    lookup_relation,
    mu_bound,
    report_slack,
)
from .states import (
    BipartiteState,
    ObservableBasis,
    _pure,
    computational_basis,
    fourier_basis,
    haar_random_pure,
    random_basis,
    random_mixed,
    state_from_token,
)

HISTOGRAM_BINS = 64

# stream roles within one trial
_STATE, _BASIS_X, _BASIS_Y, _EPS = 0, 1, 2, 3


def _parse_ensemble(ensemble: str) -> tuple[str, str | None]:
    kind, _, arg = ensemble.partition(":")
    if kind == "haar-pure" and not arg:
        return kind, None
    if kind == "induced-mixed":
        if arg and (not arg.isdigit() or int(arg) < 1):
            raise ConfigError(f"bad environment rank in ensemble {ensemble!r}")
        return kind, arg or None
    if kind == "named" and arg:
        return kind, arg
    raise ConfigError(
        f"unknown ensemble {ensemble!r}; expected haar-pure, induced-mixed[:rank], or named:<token>"
    )


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce a verification campaign."""

    dims: tuple[tuple[int, int], ...]
    trials: int
    seed: int
    relations: tuple[str, ...]
    ensemble: str = "haar-pure"
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"tol must be positive and finite, got {self.tol}")
        if not self.dims:
            raise ConfigError("dims must list at least one (dA, dB) pair")
        for d_a, d_b in self.dims:
            if d_a < 2 or d_b < 1:
                raise ConfigError(f"bad dims ({d_a}, {d_b}): need dA >= 2 and dB >= 1")
        if not self.relations:
            raise ConfigError("relations must name at least one relation")
        for name in self.relations:
            lookup_relation(name)
        kind, arg = _parse_ensemble(self.ensemble)
        if kind == "named":
            named = state_from_token(arg)
            if self.dims != ((named.d_a, named.d_b),):
                raise ConfigError(
                    f"named ensemble {arg!r} fixes dims to ({named.d_a}, {named.d_b})"
                )


@dataclass(frozen=True)
class TrialRecord:
    """Slacks of one evaluated configuration (identities as -residual)."""

    trial: int
    d_a: int
    d_b: int
    eps: float | None
    slacks: dict[str, float]


@dataclass(frozen=True)
class ArgminDescriptor:
    """Enough to regenerate the extremal trial: the stream key and dims."""

    seed: int
    trial: int
    d_a: int
    d_b: int


@dataclass(frozen=True)
class Histogram:
    """Fixed-bin slack histogram with explicit under/overflow counters."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    underflow: int
    overflow: int


@dataclass(frozen=True)
class RelationSummary:
    name: str
    kind: str
    min_slack: float
    argmin: ArgminDescriptor
    violations: int
    histogram: Histogram


@dataclass(frozen=True)
class CampaignResult:
    config: CampaignConfig
    total_trials: int
    relations: dict[str, RelationSummary]

    @property
    def total_violations(self) -> int:
        return sum(s.violations for s in self.relations.values())


def _trial_inputs(cfg: CampaignConfig, index: int):
    d_a, d_b = cfg.dims[index % len(cfg.dims)]
    kind, arg = _parse_ensemble(cfg.ensemble)
    if kind == "named":
        state = state_from_token(arg)
        x = computational_basis(d_a)
        y = fourier_basis(d_a)
    else:
        if kind == "haar-pure":
            state = haar_random_pure(d_a, d_b, (cfg.seed, index, _STATE))
        else:
            rank = int(arg) if arg else d_a * d_b
            state = random_mixed(d_a, d_b, rank, (cfg.seed, index, _STATE))
        x = random_basis(d_a, (cfg.seed, index, _BASIS_X))
        y = random_basis(d_a, (cfg.seed, index, _BASIS_Y))
    eps = None
    if any(RELATIONS[name].needs_eps for name in cfg.relations):
        eps = float(spawn_rng(cfg.seed, index, _EPS).uniform(0.0, 1.0))
    return state, x, y, eps


def _trial_record(cfg: CampaignConfig, index: int) -> TrialRecord:
    state, x, y, eps = _trial_inputs(cfg, index)
    try:
        reports = evaluate_relations(cfg.relations, x, y, state, eps=eps, tol=cfg.tol)
    except QirError as err:
        at_eps = "" if eps is None else f", eps = {eps!r}"
        raise type(err)(
            f"trial {index} at (d_A, d_B) = ({state.d_a}, {state.d_b}){at_eps}: {err}"
        ) from None
    slacks = {name: report_slack(report) for name, report in reports.items()}
    return TrialRecord(index, state.d_a, state.d_b, eps, slacks)


def _histogram(values: np.ndarray, hi: float) -> Histogram:
    edges = np.linspace(0.0, hi, HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(values[(values >= 0.0) & (values <= hi)], bins=edges)
    return Histogram(
        edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        underflow=int((values < 0.0).sum()),
        overflow=int((values > hi).sum()),
    )


def run_campaign_records(
    cfg: CampaignConfig, workers: int = 1
) -> tuple[CampaignResult, list[TrialRecord]]:
    """Evaluate the campaign's relations over its ensemble: the result and the per-trial records.

    ``workers`` > 1 runs a pool of at most ``os.cpu_count()`` processes (a
    forking pool starts them all at once); the output is the same for any count.
    """
    if workers <= 1:
        records = [_trial_record(cfg, i) for i in range(cfg.trials)]
    else:
        workers = min(workers, os.cpu_count() or 1)
        chunk = max(1, cfg.trials // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(partial(_trial_record, cfg), range(cfg.trials), chunksize=chunk))

    hist_hi = 4.0 * math.log(max(d_a for d_a, _ in cfg.dims))
    summaries: dict[str, RelationSummary] = {}
    for name in cfg.relations:
        values = np.array([rec.slacks[name] for rec in records])
        best = int(values.argmin())
        summaries[name] = RelationSummary(
            name=name,
            kind=RELATIONS[name].kind,
            min_slack=float(values[best]),
            argmin=ArgminDescriptor(
                cfg.seed, records[best].trial, records[best].d_a, records[best].d_b
            ),
            violations=int((values < -cfg.tol).sum()),
            histogram=_histogram(values, hist_hi),
        )
    result = CampaignResult(config=cfg, total_trials=cfg.trials, relations=summaries)
    return result, records


@dataclass(frozen=True, eq=False)
class SweepTrace:
    """Monitoring sweep over a strength grid.

    The contract requires eq16, irr(X) + H(Y|B) >= q, at every grid point
    and ``uncertainty_y`` constant along the grid, both enforced at 1e-9.
    irr(X) itself may rise: monitoring a skew observable Y can make X less
    real (see README notes).
    """

    eps_grid: np.ndarray
    irreality_x: np.ndarray
    uncertainty_y: np.ndarray
    bound_q: float

    def __post_init__(self):
        if not (len(self.eps_grid) == len(self.irreality_x) == len(self.uncertainty_y)):
            raise InvariantViolation("sweep trace columns have unequal lengths")
        slack = self.bound_slack()
        if float(slack.min()) < -1e-9:
            k = int(slack.argmin())
            raise InvariantViolation(
                f"eq16 slack {slack[k]:.3e} below -1e-9 at eps = {float(self.eps_grid[k])!r}"
            )
        lo, hi = int(self.uncertainty_y.argmin()), int(self.uncertainty_y.argmax())
        spread = float(self.uncertainty_y[hi] - self.uncertainty_y[lo])
        if spread > 1e-9:
            raise InvariantViolation(
                f"monitored-observable uncertainty drifted by {spread:.3e} "
                f"between eps = {float(self.eps_grid[lo])!r} and eps = {float(self.eps_grid[hi])!r}"
            )

    def bound_slack(self) -> np.ndarray:
        return self.irreality_x + self.uncertainty_y - self.bound_q


def monitoring_sweep(
    x: ObservableBasis, y: ObservableBasis, rho: BipartiteState, grid
) -> SweepTrace:
    """Track irr(X) and H(Y|B) while monitoring by Y at each grid strength.

    Gives bit for bit ``irreality(x, monitor(y, eps, rho))`` and
    ``uncertainty(y, monitor(y, eps, rho))`` at each eps, with two stacked
    eigendecompositions for the whole grid: one of the monitored matrices,
    one of all their B marginals and X and Y blocks. A strength outside
    [0, 1] raises ``OutOfRange`` naming it.
    """
    eps_grid = np.asarray(grid, dtype=float)
    if eps_grid.ndim != 1 or eps_grid.size == 0:
        raise OutOfRange("grid must be a nonempty vector")
    if np.any(np.diff(eps_grid) < 0.0):
        raise OutOfRange("grid values must be ascending")
    h_b, h_ab, h_xb, h_yb = _configuration_entropies([x, y], rho.d_a, *_monitor_grid(y, eps_grid, rho)).T
    try:
        return SweepTrace(eps_grid, h_xb - h_ab, h_yb - h_b, mu_bound(x, y))
    except InvariantViolation as err:
        raise InvariantViolation(f"sweep at (d_A, d_B) = ({rho.d_a}, {rho.d_b}): {err}") from None


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    """Best configuration found by the slack search, replayable as-is."""

    relation: str
    d_a: int
    d_b: int
    seed: int
    best_slack: float
    state: BipartiteState
    x: ObservableBasis
    y: ObservableBasis
    eps: float | None
    evaluations: int
    restarts_used: int


def _decode_state(vec: np.ndarray, d_a: int, d_b: int) -> BipartiteState | None:
    n = d_a * d_b
    z = vec[:n] + 1j * vec[n:]
    nrm = np.linalg.norm(z)
    if nrm < 1e-12:
        return None
    return _pure(d_a, d_b, z / nrm)


def _decode_basis(vec: np.ndarray, d: int) -> ObservableBasis | None:
    z = (vec[: d * d] + 1j * vec[d * d :]).reshape(d, d)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    if np.any(np.abs(diag) < 1e-12):
        return None
    return ObservableBasis(d, q * (diag / np.abs(diag)))


class _BudgetSpent(Exception):
    """The search has made all the calls it may make."""


def _nelder_mead(fun, x0: np.ndarray, xatol: float, fatol: float, max_evals: int) -> None:
    """Nelder–Mead simplex descent of ``fun`` from ``x0`` (Comput. J. 7, 308 (1965)).

    The steps of scipy 1.17's ``_minimize_neldermead`` with ``adaptive=False``,
    no bounds and its default initial simplex, down to the numpy expressions
    and sorts, so that ``fun`` is called at the same points in the same order.
    The search stops once the simplex spans at most ``xatol`` in every
    coordinate and ``fatol`` in value, or once ``fun`` has been called
    ``max_evals`` times, even within the initial simplex or a shrink. ``fun``
    must not change the point it is given. Nothing is returned: the caller
    keeps what it needs from the calls.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= max_evals:
            raise _BudgetSpent
        calls += 1
        return fun(x)

    def order():
        nonlocal sim, fsim
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    n = len(x0)
    sim = np.empty((n + 1, n), dtype=x0.dtype)
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.full((n + 1,), np.inf, dtype=float)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
        order()
        order()  # scipy sorts a second time here, and np.argsort is not stable
        while not (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = f(xc)
                    accept = fxc <= fxr
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            order()
    except _BudgetSpent:
        pass


def minimize_slack(
    relation: str,
    d_a: int,
    d_b: int,
    restarts: int,
    seed: int,
    tol: float = DEFAULT_TOL,
    target: float | None = None,
    max_evals: int = 5000,
) -> MinimizeResult:
    """Search for the configuration minimizing an inequality's slack.

    qir's own Nelder–Mead simplex descent (``_nelder_mead``), which
    evaluates the points scipy's non-adaptive Nelder–Mead evaluates, in
    the same order, so results do not depend on the installed scipy. It
    runs over a real parametrization: a pure state as 2*dA*dB reals, each
    basis as 2*dA^2 reals pushed through a QR retraction, plus one
    strength parameter for relations that monitor. Each restart draws its
    start point from stream ``(seed, restart)`` and may evaluate
    ``max_evals`` points; the search stops early once ``target`` is reached.

    Raises ``TheoremViolation`` if the best slack falls below ``-tol``.
    """
    info = lookup_relation(relation)
    if info.kind != "inequality":
        raise ConfigError(f"relation {relation!r} is an identity; nothing to minimize")
    if d_a < 2 or d_b < 1:
        raise BadDimension(f"need d_a >= 2 and d_b >= 1, got ({d_a}, {d_b})")
    if restarts < 1:
        raise ConfigError(f"restarts must be >= 1, got {restarts}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if max_evals < 1:
        raise ConfigError(f"max_evals must be >= 1, got {max_evals}")

    n_state = 2 * d_a * d_b
    n_basis = 2 * d_a * d_a
    n_params = n_state + 2 * n_basis + (1 if info.needs_eps else 0)

    def decode(theta: np.ndarray):
        state = _decode_state(theta[:n_state], d_a, d_b)
        x = _decode_basis(theta[n_state : n_state + n_basis], d_a)
        y = _decode_basis(theta[n_state + n_basis : n_state + 2 * n_basis], d_a)
        if state is None or x is None or y is None:
            return None
        eps = None
        if info.needs_eps:
            eps = 0.5 * (1.0 + math.tanh(theta[-1]))
        return state, x, y, eps

    best_value = math.inf
    best_theta: np.ndarray | None = None
    evaluations = 0

    def objective(theta: np.ndarray) -> float:
        nonlocal best_value, best_theta, evaluations
        evaluations += 1
        decoded = decode(theta)
        if decoded is None:
            return 1e3
        state, x, y, eps = decoded
        value = evaluate_relations((relation,), x, y, state, eps=eps, tol=tol)[relation].slack
        if value < best_value:
            best_value = value
            best_theta = theta.copy()
        return value

    restarts_used = 0
    for restart in range(restarts):
        restarts_used += 1
        x0 = spawn_rng(seed, restart).standard_normal(n_params)
        _nelder_mead(objective, x0, xatol=1e-9, fatol=1e-12, max_evals=max_evals)
        if target is not None and best_value <= target:
            break

    decoded = decode(best_theta) if best_theta is not None else None
    if decoded is None:
        raise ConfigError("search never produced a decodable point")
    state, x, y, eps = decoded
    best = evaluate_relations((relation,), x, y, state, eps=eps, tol=tol)[relation]
    best_slack = float(best.slack)
    if best_slack < -tol:
        raise TheoremViolation(
            f"{relation} slack {best_slack:.3e} below -{tol:.1e}; "
            "either a numerics bug or a counterexample worth a close look"
        )
    return MinimizeResult(
        relation=relation,
        d_a=d_a,
        d_b=d_b,
        seed=seed,
        best_slack=best_slack,
        state=state,
        x=x,
        y=y,
        eps=eps,
        evaluations=evaluations,
        restarts_used=restarts_used,
    )
