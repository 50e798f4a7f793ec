"""Verification campaigns, monitoring sweeps, and extremal-slack search.

Campaigns evaluate a set of relations over random ensembles with a
deterministic per-trial stream layout. Trial ``i`` of a campaign seeded
with ``s`` draws its state and its two bases from
``SeedSequence(entropy=(s, i, role))`` with roles 0, 1 and 2, and its
monitoring strength from ``SeedSequence(entropy=s, spawn_key=(i, 3))``;
the two constructions give different streams, so a reimplementation must
follow both. The layout does not depend on how the trials are evaluated:
a campaign runs in chunks of consecutive trials, each holding at most
``CHUNK_BYTES`` of state matrices. Each trial of a chunk draws from its
own streams, and the linear algebra after the draws runs as stacks: one
stacked QR and one basis check per d_A, one state check and one
monitoring pass per (d_A, d_B), and one eigendecomposition of every
block and marginal per d_B, all in one ``relations._bundles`` call per
chunk. ``--workers`` maps the chunks over a pool.
Every trial gets the bits it gets alone, so results are identical for
any chunking and any worker count.
"""

from __future__ import annotations

import math
import os
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
    _bundles,
    _check_tol,
    _reports,
    lookup_relation,
    mu_bound,
)
from .states import (
    BipartiteState,
    ObservableBasis,
    _checked_bases,
    _checked_stack,
    _ginibre,
    _haar_bases,
    _induced_densities,
    _phase_fixed,
    _pure,
    _pure_densities,
    computational_basis,
    fourier_basis,
    state_from_token,
)

HISTOGRAM_BINS = 64
STACK_CHUNK = 256  # rows per stacked pass: sweep strengths, or search points of minimize_slack
CHUNK_BYTES = 1 << 22  # bound on a campaign chunk's state matrices, 16 n^2 bytes per trial

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
        _check_tol(self.tol)
        if not self.dims:
            raise ConfigError("dims must list at least one (dA, dB) pair")
        for d_a, d_b in self.dims:
            if d_a < 2 or d_b < 1:
                raise ConfigError(f"bad dims ({d_a}, {d_b}): need dA >= 2 and dB >= 1")
        if not self.relations:
            raise ConfigError("relations must name at least one relation")
        for name in self.relations:
            lookup_relation(name)
            if self.relations.count(name) > 1:
                raise ConfigError(f"relation {name!r} is named more than once")
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


def _trial_eps(seed: int, index: int) -> float:
    return float(spawn_rng(seed, index, _EPS).uniform(0.0, 1.0))


def _campaign_chunks(cfg: CampaignConfig, workers: int) -> list[range]:
    """The campaign's trials as runs of consecutive trials, as even as can be.

    Each run holds at most ``CHUNK_BYTES`` of state matrices, counting every
    trial at its campaign's widest pair, and there are at least ``workers``
    runs where there are that many trials.
    """
    widest = max(d_a * d_b for d_a, d_b in cfg.dims)
    most = max(1, CHUNK_BYTES // (16 * widest * widest))
    count = max(workers, -(-cfg.trials // most))
    size = -(-cfg.trials // count)
    return [range(start, min(start + size, cfg.trials)) for start in range(0, cfg.trials, size)]


def _chunk_records(cfg: CampaignConfig, trials: range) -> list[TrialRecord]:
    """The records of a run of consecutive trials, evaluated as stacks.

    Each trial draws its inputs from its own streams (``_chunk_inputs``)
    and gets the slacks ``evaluate_relations`` gives it alone. The trials
    are grouped by (d_A, d_B), and the groups take one ``_bundles`` call,
    in which the slices of every group with the same d_B take one stacked
    eigendecomposition. A chunk that raises a ``QirError`` runs again one
    trial at a time, so the error names the first failing trial as it
    fails alone: its dims and, once it has been drawn, its eps.
    """
    rows = [RELATIONS[name] for name in cfg.relations]
    groups: dict[tuple[int, int], list[int]] = {}
    for i in trials:
        groups.setdefault(cfg.dims[i % len(cfg.dims)], []).append(i)
    eps = None  # named only once drawn: a trial can fail while its state or bases are drawn
    try:
        inputs = _chunk_inputs(cfg, groups)
        if any(row.needs_eps for row in rows):
            eps = {i: _trial_eps(cfg.seed, i) for i in trials}
        bundles = _bundles([(x, y, dims[0], rhos, spectra, None if eps is None else [eps[i] for i in groups[dims]])
                            for dims, (rhos, spectra, x, y) in inputs.items()])
        records = {}
        for (dims, idx), group in zip(groups.items(), bundles):
            for i, bundle in zip(idx, group):
                slacks = {name: report.slack for name, report in _reports(rows, bundle, cfg.tol).items()}
                records[i] = TrialRecord(i, *dims, None if eps is None else eps[i], slacks)
    except QirError as err:
        if len(trials) > 1:
            for i in trials:
                _chunk_records(cfg, range(i, i + 1))
            raise
        d_a, d_b = cfg.dims[trials[0] % len(cfg.dims)]
        at_eps = "" if eps is None else f", eps = {eps[trials[0]]!r}"
        raise type(err)(f"trial {trials[0]} at (d_A, d_B) = ({d_a}, {d_b}){at_eps}: {err}") from None
    return [records[i] for i in trials]


def _chunk_inputs(cfg: CampaignConfig, groups: dict) -> dict:
    """The checked inputs of each group of a chunk: ``(rhos, spectra, x, y)`` by (d_A, d_B).

    Each trial draws its state and bases from its own streams, as the
    public constructors do (``states._ginibre``), and the stacks get each
    slice the bits of its constructor: the states of a group take one
    ``_checked_stack``, and the X and Y bases of every trial with the same
    d_A one stacked QR (``states._haar_bases``) and one ``_checked_bases``.
    A named ensemble builds its state once, and its bases are shared.
    """
    kind, arg = _parse_ensemble(cfg.ensemble)
    if kind == "named":
        state = state_from_token(arg)
        k = len(next(iter(groups.values())))  # a named ensemble fixes one pair
        return {(state.d_a, state.d_b): (
            np.repeat(state.rho[None], k, axis=0), np.repeat(state.spectrum[None], k, axis=0),
            computational_basis(state.d_a).vectors, fourier_basis(state.d_a).vectors,
        )}
    states = {}
    for (d_a, d_b), idx in groups.items():
        n = d_a * d_b
        if kind == "haar-pure":
            matrices = _pure_densities(np.array([_ginibre((cfg.seed, i, _STATE), n) for i in idx]))
        else:
            rank = int(arg) if arg else n
            matrices = _induced_densities(np.array([_ginibre((cfg.seed, i, _STATE), (n, rank)) for i in idx]))
        states[d_a, d_b] = _checked_stack(d_a, d_b, matrices)
    bases = {}
    for d_a in dict.fromkeys(d_a for d_a, _ in groups):
        members = [dims for dims in groups if dims[0] == d_a]
        z = np.array([_ginibre((cfg.seed, i, role), (d_a, d_a))
                      for dims in members for i in groups[dims] for role in (_BASIS_X, _BASIS_Y)])
        checked = _checked_bases(d_a, _haar_bases(z)).reshape(-1, 2, d_a, d_a)
        ends = np.cumsum([len(groups[dims]) for dims in members])[:-1]
        bases.update(zip(members, np.split(checked, ends)))
    return {dims: (*states[dims], bases[dims][:, 0], bases[dims][:, 1]) for dims in groups}


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

    The trials run in chunks (``_campaign_chunks``, ``_chunk_records``).
    ``workers`` > 1 maps the chunks over a pool of at most ``os.cpu_count()``
    processes (a forking pool starts them all at once); the output is the
    same for any count.
    """
    pool_size = min(workers, os.cpu_count() or 1)
    chunks = _campaign_chunks(cfg, max(1, pool_size))
    if workers <= 1:
        parts = [_chunk_records(cfg, trials) for trials in chunks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            parts = list(pool.map(partial(_chunk_records, cfg), chunks))
    records = [record for part in parts for record in part]

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
    ``uncertainty(y, monitor(y, eps, rho))`` at each eps. The grid runs in
    chunks of ``STACK_CHUNK`` strengths, so memory does not grow with it;
    each chunk takes two stacked eigendecompositions: one of its monitored
    matrices (rho itself at eps = 0), one of their B marginals and X and Y
    blocks. A slice's bits do not depend on its stack, so the chunks move
    no output bit. A ``QirError`` raised while the grid is evaluated, such
    as the ``OutOfRange`` of a strength outside [0, 1], is raised again as its
    type, prefixed with the dims.
    """
    eps_grid = np.asarray(grid, dtype=float)
    if eps_grid.ndim != 1 or eps_grid.size == 0:
        raise OutOfRange("grid must be a nonempty vector")
    if np.any(np.diff(eps_grid) < 0.0):
        raise OutOfRange("grid values must be ascending")
    h = np.empty((len(eps_grid), 4))
    try:
        for i in range(0, len(eps_grid), STACK_CHUNK):
            grid = _monitor_grid(y.vectors, eps_grid[i : i + STACK_CHUNK], rho.d_a, rho.rho[None])
            h[i : i + STACK_CHUNK] = _configuration_entropies([([x.vectors, y.vectors], rho.d_a, *grid, True)])[0]
        h_b, h_ab, h_xb, h_yb = h.T
        return SweepTrace(eps_grid, h_xb - h_ab, h_yb - h_b, mu_bound(x, y))
    except QirError as err:
        raise type(err)(f"sweep at (d_A, d_B) = ({rho.d_a}, {rho.d_b}): {err}") from None


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


def _decode(thetas: np.ndarray, d_a: int, d_b: int, needs_eps: bool):
    """Decode a ``(k, n_params)`` batch of search points, unchecked.

    A point is a pure state as 2*dA*dB reals (real parts, then imaginary),
    the X and then the Y basis as 2*dA^2 reals each (a Ginibre matrix,
    retracted by QR with the phase fix of ``random_basis``), and for a
    relation that monitors one more real t, the strength (1 + tanh t) / 2.
    Returns the indices of the decodable points, their unit state vectors
    ``(m, dA*dB)``, their X and Y vectors as one ``(m, 2, dA, dA)`` stack and
    their strengths, or None. A point is not decodable when its state part
    has norm below 1e-12 or one of its R factors a diagonal entry below
    1e-12 in modulus. The norms take one ``np.vecdot`` pass and the bases
    one stacked ``np.linalg.qr``; row i has the bits of point i decoded alone.
    """
    n = d_a * d_b
    z = thetas[:, :n] + 1j * thetas[:, n : 2 * n]
    norms = np.sqrt(np.vecdot(z.real, z.real) + np.vecdot(z.imag, z.imag))  # np.linalg.norm's bits
    parts = thetas[:, 2 * n : 2 * n + 4 * d_a * d_a].reshape(-1, 2, 2, d_a, d_a)
    q, r = np.linalg.qr(parts[:, :, 0] + 1j * parts[:, :, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    kept = np.flatnonzero(~(norms < 1e-12) & ~np.any(np.abs(diag) < 1e-12, axis=(1, 2)))
    bases = _phase_fixed(q[kept], diag[kept])
    eps = [0.5 * (1.0 + math.tanh(t)) for t in thetas[kept, -1].tolist()] if needs_eps else None
    return kept, z[kept] / norms[kept, None], bases, eps


def _point_slacks(relation: str, d_a: int, d_b: int, thetas: np.ndarray, tol: float):
    """Slack of ``relation`` at each point of a ``(k, n_params)`` batch, and the decodable points.

    A point that does not decode (``_decode``) scores 1e3. The rest are
    checked as their constructors check them, as stacks (``_checked_stack``
    and ``_checked_bases``), their spectra take one stacked call, and their
    bundles are the one group of a ``_bundles`` call; point i gets the bits
    of the slack ``evaluate_relations`` gives it. Returns the ``(k,)``
    slacks and the ``(k,)`` mask of decodable points.
    """
    row = lookup_relation(relation)
    kept, psi, bases, eps = _decode(thetas, d_a, d_b, row.needs_eps)
    slacks = np.full(len(thetas), 1e3)
    if len(kept):
        rhos, spectra = _checked_stack(d_a, d_b, psi[:, :, None] * psi.conj()[:, None, :])
        bases = _checked_bases(d_a, bases.reshape(-1, d_a, d_a)).reshape(-1, 2, d_a, d_a)
        bundles = _bundles([(bases[:, 0], bases[:, 1], d_a, rhos, spectra, eps)])[0]
        slacks[kept] = [_reports([row], bundle, tol)[relation].slack for bundle in bundles]
    decodable = np.zeros(len(thetas), dtype=bool)
    decodable[kept] = True
    return slacks, decodable


def _nelder_mead(x0: np.ndarray, xatol: float, fatol: float, max_evals: int):
    """Nelder–Mead simplex descent from ``x0`` (Comput. J. 7, 308 (1965)), as an ask/tell generator.

    The steps of scipy 1.17's ``_minimize_neldermead`` with ``adaptive=False``,
    no bounds and its default initial simplex, down to the numpy expressions
    and sorts, so that the search asks for the same points in the same
    order. It yields each ``(k, n)`` batch of points and must be sent their
    k values. The initial simplex is one batch, each shrink one batch, and
    every other point a batch of one. The search ends once the simplex
    spans at most ``xatol`` in every coordinate and ``fatol`` in value, or
    once it has yielded ``max_evals`` points: a batch that would pass the
    budget is cut at it, and the search ends when that batch's values are
    sent. A batch may be a view of the simplex: the caller must not change
    it and must be done with it before sending its values. Nothing is
    returned: the caller keeps what it needs from the batches.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5

    def ordered(sim, fsim):
        ind = np.argsort(fsim)
        return np.take(sim, ind, 0), np.take(fsim, ind, 0)

    def steps():
        n = len(x0)
        sim = np.empty((n + 1, n), dtype=x0.dtype)
        sim[0] = x0
        for k in range(n):
            y = np.array(x0, copy=True)
            y[k] = (1 + 0.05) * y[k] if y[k] != 0 else 0.00025
            sim[k + 1] = y
        fsim = np.full((n + 1,), np.inf, dtype=float)
        fsim[:] = yield sim
        sim, fsim = ordered(*ordered(sim, fsim))  # scipy sorts twice here, and np.argsort is not stable
        while not (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
            and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol
        ):
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = (yield xr[None])[0]
            if fxr < fsim[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = (yield xe[None])[0]
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                    fxc = (yield xc[None])[0]
                    accept = fxc <= fxr
                else:
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = (yield xc[None])[0]
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                    fsim[1:] = yield sim[1:]
            sim, fsim = ordered(sim, fsim)

    search = steps()
    batch = next(search)
    while True:
        batch = batch[:max_evals]
        max_evals -= len(batch)
        values = yield batch
        if not max_evals:
            return
        try:
            batch = search.send(values)
        except StopIteration:
            return


def _searches(relation: str, d_a: int, d_b: int, tol: float, starts: list, max_evals: int):
    """Run a search of ``relation``'s slack from each start point, side by side.

    Each tick stacks the pending batch of every unfinished search, in start
    order, and evaluates the stack in slices of at most ``STACK_CHUNK``
    points (``_point_slacks``). A point's slack does not depend on its
    pass, so each search takes the steps it takes alone.
    Returns the number of points evaluated and, per start, its search's
    first decodable point of least slack as ``(slack, point)`` or ``(inf, None)``.
    """
    steps = [_nelder_mead(x0, xatol=1e-9, fatol=1e-12, max_evals=max_evals) for x0 in starts]
    batches = [next(search) for search in steps]
    best = [(math.inf, None)] * len(starts)
    evaluations, live = 0, range(len(starts))
    while live:
        rows = np.concatenate([batches[i] for i in live])
        passes = [_point_slacks(relation, d_a, d_b, rows[j : j + STACK_CHUNK], tol)
                  for j in range(0, len(rows), STACK_CHUNK)]
        slacks, decodable = (np.concatenate(part) for part in zip(*passes))
        values, good = slacks.tolist(), decodable.tolist()
        unfinished, start = [], 0
        for i in live:
            end = start + len(batches[i])
            for theta, value, ok in zip(rows[start:end], values[start:end], good[start:end]):
                if ok and value < best[i][0]:
                    best[i] = (value, theta)
            try:
                batches[i] = steps[i].send(slacks[start:end])
            except StopIteration:
                pass
            else:
                unfinished.append(i)
            start = end
        evaluations += start
        live = unfinished
    return evaluations, best


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
    strength parameter for relations that monitor (``_decode``). Each
    restart draws its start point from stream ``(seed, restart)`` and may
    evaluate ``max_evals`` points. A restart asks for its initial simplex
    and each shrink as one batch, and for every other point as a batch of
    one. Without a ``target`` every restart will run, so the restarts step
    side by side, up to ``STACK_CHUNK`` of them at a time: each tick
    evaluates the pending batch of every unfinished restart, in restart
    order, in stacked passes of at most ``STACK_CHUNK`` points
    (``_point_slacks``: decoded, checked and evaluated as stacks). With a
    ``target`` the restarts run one at a time, and the search stops after
    the restart in which the best slack reached the target. Each point
    gets the slack it gets alone and ``_searches`` keeps each restart's
    first best point with its slack. The best point is picked once, here:
    the first least over all restarts, in restart order, so the first
    restart wins a tie and the result is that of a point-by-point search of
    one restart after another, whatever the passes. It is scored once: the
    result reports the slack the search gave it, and builds its state and
    bases from the decoded point through their constructors.

    A ``tol`` that is not positive and finite, or a NaN ``target``, raises
    ``ConfigError`` before any search; a ``QirError`` raised while searching
    is raised again as its type, prefixed with the relation and dims; a best
    slack below ``-tol`` raises ``TheoremViolation``.
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
    _check_tol(tol)
    if target is not None and math.isnan(target):
        raise ConfigError("target must be a number, got nan: no slack can reach it")

    n_params = 2 * d_a * d_b + 4 * d_a * d_a + (1 if info.needs_eps else 0)
    # a window wider than one pass holds more simplices and saves no pass
    window = min(restarts, STACK_CHUNK) if target is None else 1
    found, evaluations, restarts_used = [], 0, 0
    for first in range(0, restarts, window):
        restarts_used = min(first + window, restarts)
        starts = [spawn_rng(seed, restart).standard_normal(n_params) for restart in range(first, restarts_used)]
        try:
            count, window_best = _searches(relation, d_a, d_b, tol, starts, max_evals)
        except QirError as err:
            raise type(err)(f"{relation} search at (d_A, d_B) = ({d_a}, {d_b}): {err}") from None
        evaluations += count
        found += window_best
        if target is not None and any(value <= target for value, _ in window_best):
            break

    best_slack, best_theta = min(found, key=lambda pair: pair[0])  # min keeps the first of equal slacks
    if best_theta is None:
        raise ConfigError("search never produced a decodable point")
    _, psi, bases, eps = _decode(best_theta[None], d_a, d_b, info.needs_eps)
    state = _pure(d_a, d_b, psi[0])
    x, y = ObservableBasis(d_a, bases[0, 0]), ObservableBasis(d_a, bases[0, 1])
    eps = None if eps is None else eps[0]
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
