"""The three workloads, each a round of identical units on seeded inputs.

A workload builds its inputs from the seed in ``setup``. A round runs
every unit once, in order; ``run_unit(k)`` calls one public entry point of
qir and returns how many of its operations failed. Every round repeats
the same units on the same inputs, so each unit is timed once per round
and ``check`` (after the timed phase) verifies that every repetition
returned the same outputs and that the first is correct.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os

import numpy as np

import checks

ACCEPTANCE_DIMS = tuple((d_a, d_b) for d_a in range(2, 6) for d_b in range(1, 4))


class Campaign:
    """`qir verify` in-process: induced-mixed campaigns over the acceptance dims.

    One operation is one trial. A unit is one campaign of one trial per
    dimension pair, all seven relations, writing its three files to a fresh
    directory; unit ``k`` of seed ``s`` has campaign seed ``s * UNITS + k``,
    so a round covers eight trials per pair.
    """

    name = "campaign"
    UNITS = 8
    TRIALS = len(ACCEPTANCE_DIMS)

    def __init__(self, qir, seed: int, out_dir: str):
        self.qir, self.out_dir = qir, out_dir
        self.seeds = [seed * self.UNITS + k for k in range(self.UNITS)]
        self.units, self.ops_per_round = self.UNITS, self.UNITS * self.TRIALS
        self.runs: list[list[tuple]] = [[] for _ in range(self.UNITS)]  # (code, stdout, dir, records)

    def _config(self, name: str, seed: int, trials: int) -> str:
        path = os.path.join(self.out_dir, name)
        dims = " ".join(f"{d_a}x{d_b}" for d_a, d_b in ACCEPTANCE_DIMS)
        with open(path, "w") as fh:
            fh.write(
                "[campaign]\n"
                f"dims = {dims}\n"
                f"trials = {trials}\n"
                f"seed = {seed}\n"
                f"relations = {' '.join(checks.RELATIONS)}\n"
                "ensemble = induced-mixed\n"
            )
        return path

    def setup(self) -> None:
        explore = self.qir.explore
        self.cli = importlib.import_module("qir.cli")
        self.kept = []

        def keep_records(cfg, workers=1):
            # looked up at call time, so a traced run_campaign_records is seen
            result, records = explore.run_campaign_records(cfg, workers=workers)
            self.kept.append(records)
            return result, records

        self.cli.run_campaign_records = keep_records
        self.configs = [self._config(f"seed{s}.cfg", s, self.TRIALS) for s in self.seeds]
        self.warm_config = self._config("warm.cfg", self.seeds[0], 1)

    def _verify(self, config: str, out: str) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(["verify", "--config", config, "--out", out, "--workers", "1"])
        return code, buf.getvalue()

    def warm_up(self) -> None:
        self._verify(self.warm_config, os.path.join(self.out_dir, "warm"))

    def run_unit(self, k: int) -> int:
        out = os.path.join(self.out_dir, f"unit{k}-{len(self.runs[k])}")
        self.kept.clear()
        code, text = self._verify(self.configs[k], out)
        self.runs[k].append((code, text, out, list(self.kept)))
        return 0

    def check(self) -> None:
        for seed, runs in zip(self.seeds, self.runs):
            first = None
            for code, text, out, kept in runs:
                if code != 0 or f"total trials {self.TRIALS}, violations 0" not in text:
                    raise checks.CheckFailed(f"qir verify exited {code}: {text[-300:]!r}")
                if len(kept) != 1:
                    raise checks.CheckFailed(f"{out}: {len(kept)} campaigns ran for one verify")
                rows = [(r.trial, r.d_a, r.d_b, r.eps, r.slacks) for r in kept[0]]
                if first is None:
                    first = rows
                    if [r[0] for r in rows] != list(range(self.TRIALS)):
                        raise checks.CheckFailed(f"{out}: trials are not 0..{self.TRIALS - 1}")
                elif rows != first:
                    raise checks.CheckFailed(f"{out}: trials differ from the first repetition")
                with open(os.path.join(out, "slacks.csv")) as fh:
                    csv_text = fh.read()
                with open(os.path.join(out, "campaign_result.json")) as fh:
                    result = json.load(fh)
                with open(os.path.join(out, "manifest.json")) as fh:
                    manifest = json.load(fh)
                checks.check_campaign_files(rows, csv_text, result, manifest)
            checks.check_campaign_records(seed, first)


def _rotation(d: int, angle: float) -> np.ndarray:
    """Rotation by ``angle`` in the plane of the first two basis vectors."""
    u = np.eye(d, dtype=np.complex128)
    c, s = math.cos(angle), math.sin(angle)
    u[:2, :2] = [[c, -s], [s, c]]
    return u


class Sweep:
    """`monitoring_sweep` over a 21-point grid for a fixed list of configurations.

    One operation, and one unit, is one sweep. The seeded configurations are
    random full-rank mixed states with Haar bases at small dims; a candidate
    whose reference irr(X) rises along the grid is drawn again, because qir
    refuses such a sweep and the share of refusals would then depend on the
    seed. The refusal is kept instead on four fixed inputs where irr(X)
    provably rises (|0><0| on A, maximally mixed on B, X computational and
    Y rotated by pi/8): every round attempts them and counts them as failed.
    A refusal passes the check only as that fault on a rising reference; once
    the fault is mended these sweeps complete and are checked as the others.

    ``draws`` holds, per seeded slot, the number of the draw that is used.
    ``select_draws`` finds them from the reference; a set-up timed for
    ``setup_s`` is handed them instead, so that it holds no reference work.
    """

    name = "sweep"
    GRID = np.linspace(0.0, 1.0, 21)
    SLOT_DIMS = ((2, 1), (2, 2), (3, 1), (3, 2)) * 4
    FALLING = -1e-8  # a seeded candidate's largest step of irr(X) must be below this
    MAX_DRAWS = 100

    def __init__(self, qir, seed: int, out_dir: str):
        self.qir, self.seed = qir, seed
        self.draws: list[int] | None = None
        # (label, d_a, d_b, rho, x, y, state, X, Y): numpy inputs, then qir's
        self.configs: list[tuple] = []

    def _draw(self, slot: int, draw: int, d_a: int, d_b: int):
        n = d_a * d_b
        rho = checks.induced_mixed(checks.philox(self.seed, slot, draw, 0), n, n)
        x = checks.haar_basis(checks.philox(self.seed, slot, draw, 1), d_a)
        y = checks.haar_basis(checks.philox(self.seed, slot, draw, 2), d_a)
        return rho, x, y

    def select_draws(self) -> list[int]:
        """Per seeded slot, the first draw whose reference irr(X) falls at every grid step."""
        draws = []
        for slot, (d_a, d_b) in enumerate(self.SLOT_DIMS):
            for draw in range(self.MAX_DRAWS):
                rho, x, y = self._draw(slot, draw, d_a, d_b)
                irr = [checks.irreality(x, checks.monitored(y, e, rho, d_b), d_b) for e in self.GRID]
                if np.diff(irr).max() < self.FALLING:
                    draws.append(draw)
                    break
            else:
                raise RuntimeError(f"no falling sweep in {self.MAX_DRAWS} draws at ({d_a}, {d_b})")
        return draws

    def setup(self) -> None:
        if self.draws is None:
            self.draws = self.select_draws()
        raw = []
        for slot, ((d_a, d_b), draw) in enumerate(zip(self.SLOT_DIMS, self.draws)):
            raw.append((f"seeded{slot}", d_a, d_b, *self._draw(slot, draw, d_a, d_b)))
        for d_a, d_b in self.SLOT_DIMS[:4]:
            ket0 = np.zeros((d_a, d_a), dtype=np.complex128)
            ket0[0, 0] = 1.0
            rho = np.kron(ket0, np.eye(d_b) / d_b)
            raw.append((f"rising{d_a}x{d_b}", d_a, d_b, rho, np.eye(d_a, dtype=np.complex128),
                        _rotation(d_a, math.pi / 8)))
        BipartiteState, ObservableBasis = self.qir.BipartiteState, self.qir.ObservableBasis
        for label, d_a, d_b, rho, x, y in raw:
            self.configs.append((label, d_a, d_b, rho, x, y, BipartiteState(d_a, d_b, rho),
                                 ObservableBasis(d_a, x), ObservableBasis(d_a, y)))
        self.units = self.ops_per_round = len(self.configs)
        self.runs: list[list] = [[] for _ in self.configs]

    def warm_up(self) -> None:
        *_, state, x, y = self.configs[0]
        self.qir.monitoring_sweep(x, y, state, self.GRID[::20])

    def run_unit(self, k: int) -> int:
        *_, state, x, y = self.configs[k]
        try:
            trace = self.qir.monitoring_sweep(x, y, state, self.GRID)
        except Exception as exc:  # judged by check(): only the known refusal passes
            self.runs[k].append(exc)
            return 1
        self.runs[k].append((trace.irreality_x, trace.uncertainty_y, trace.bound_slack(),
                             trace.bound_q))
        return 0

    def check(self) -> None:
        for runs, (label, d_a, d_b, rho, x, y, *_) in zip(self.runs, self.configs):
            first = runs[0]
            for again in runs[1:]:
                if isinstance(first, Exception):
                    same = type(again) is type(first) and str(again) == str(first)
                else:
                    same = not isinstance(again, Exception) and all(
                        np.array_equal(u, v) for u, v in zip(first, again))
                if not same:
                    raise checks.CheckFailed(f"sweep {label} differs between rounds")
            ref_irr, ref_unc = checks.sweep_reference(rho, x, y, self.GRID, d_a, d_b)
            try:
                if isinstance(first, Exception):
                    checks.check_refused_sweep(first, ref_irr, self.qir.InvariantViolation)
                    continue
                irr, unc, slack, q = first
                checks.check_sweep(self.GRID, irr, unc, slack, ref_irr)
                if abs(q - checks.overlap_bound(x, y)) > checks.REF_TOL:
                    raise checks.CheckFailed(f"q = {q!r} off the reference")
                if np.abs(unc - ref_unc).max() > checks.REF_TOL:
                    raise checks.CheckFailed("H(Y|B) off the reference")
            except checks.CheckFailed as exc:
                raise checks.CheckFailed(f"sweep {label} ({d_a}, {d_b}): {exc}") from None


class Minimize:
    """`minimize_slack("eq11", 2, 2)` with no target.

    One operation is one objective evaluation. A unit is one search of
    ``RESTARTS`` restarts, each of which uses up its ``BUDGET`` evaluations
    (Nelder-Mead over 24 parameters is far from converged by then); unit
    ``k`` of seed ``s`` searches with seed ``s * UNITS + k``.
    """

    name = "minimize"
    UNITS = 4
    RESTARTS = 2
    BUDGET = 60

    def __init__(self, qir, seed: int, out_dir: str):
        self.qir = qir
        self.seeds = [seed * self.UNITS + k for k in range(self.UNITS)]
        self.units, self.ops_per_round = self.UNITS, self.UNITS * self.RESTARTS * self.BUDGET
        self.runs: list[list] = [[] for _ in range(self.UNITS)]

    def setup(self) -> None:
        pass

    def warm_up(self) -> None:
        self.qir.minimize_slack("eq11", 2, 2, restarts=1, seed=self.seeds[0], max_evals=10)

    def run_unit(self, k: int) -> int:
        self.runs[k].append(self.qir.minimize_slack(
            "eq11", 2, 2, restarts=self.RESTARTS, seed=self.seeds[k], max_evals=self.BUDGET))
        return 0

    def check(self) -> None:
        for seed, runs in zip(self.seeds, self.runs):
            first = runs[0]
            for again in runs[1:]:
                if again.best_slack != first.best_slack or not np.array_equal(
                        again.state.rho, first.state.rho):
                    raise checks.CheckFailed(f"minimize seed {seed} differs between rounds")
            try:
                checks.check_minimize(first.best_slack, first.state.rho, first.x.vectors,
                                      first.y.vectors, first.d_a, first.d_b, first.evaluations,
                                      first.restarts_used, self.RESTARTS, self.BUDGET)
            except checks.CheckFailed as exc:
                raise checks.CheckFailed(f"minimize seed {seed}: {exc}") from None


WORKLOADS = {w.name: w for w in (Campaign, Sweep, Minimize)}
