"""Reference computations and output checks, written apart from qir.

Everything here uses numpy only: LAPACK ``eigvalsh`` for spectra, and the
benchmark's own dephasing (a sum of projections), partial trace and
monitoring. Every check raises ``CheckFailed`` naming what disagreed and
by how much; none of them imports qir, so a fault in qir cannot hide in
its own reference.
"""

from __future__ import annotations

import math

import numpy as np

# stream roles within one campaign trial, as documented in qir.explore
STATE, BASIS_X, BASIS_Y, EPS = 0, 1, 2, 3

RELATIONS = ("eq5", "eq7", "eq8", "eq9", "eq10", "eq11", "eq16")
IDENTITIES = ("eq7", "eq8")

TOL = 1e-9  # inequality slack floor, identity residual, additivity, flatness
REF_TOL = 1e-8  # agreement with the LAPACK reference


class CheckFailed(Exception):
    """An output of the program disagrees with its reference or a property."""


# ---------------------------------------------------------------- inputs


def philox(entropy, *spawn_key: int) -> np.random.Generator:
    """The Philox stream of ``SeedSequence(entropy, spawn_key)``."""
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=tuple(int(k) for k in spawn_key))
    return np.random.Generator(np.random.Philox(ss))


def induced_mixed(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Induced-measure density matrix: a Ginibre n x rank matrix, Z Z^dag / Tr."""
    z = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def haar_basis(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary (columns): QR of a Ginibre matrix, phases fixed."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def campaign_inputs(seed: int, trial: int, d_a: int, d_b: int):
    """Rebuild one induced-mixed campaign trial: (rho, X, Y, eps).

    The state and the bases come from the stream whose entropy is the
    triple ``(seed, trial, role)``; eps from entropy ``seed`` with spawn key
    ``(trial, role)``.
    """
    rho = induced_mixed(philox((seed, trial, STATE)), d_a * d_b, d_a * d_b)
    x = haar_basis(philox((seed, trial, BASIS_X)), d_a)
    y = haar_basis(philox((seed, trial, BASIS_Y)), d_a)
    eps = float(philox(seed, trial, EPS).uniform(0.0, 1.0))
    return rho, x, y, eps


# ------------------------------------------------------------ quantities


def entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def marginal_b(rho: np.ndarray, d_a: int, d_b: int) -> np.ndarray:
    return np.trace(rho.reshape(d_a, d_b, d_a, d_b), axis1=0, axis2=2)


def dephase(basis: np.ndarray, rho: np.ndarray, d_b: int) -> np.ndarray:
    """Sum over basis columns of (P_i x 1) rho (P_i x 1)."""
    out = np.zeros_like(rho)
    eye = np.eye(d_b)
    for i in range(basis.shape[1]):
        col = basis[:, i]
        p = np.kron(np.outer(col, col.conj()), eye)
        out += p @ rho @ p
    return out


def monitored(basis: np.ndarray, eps: float, rho: np.ndarray, d_b: int) -> np.ndarray:
    return (1.0 - eps) * rho + eps * dephase(basis, rho, d_b)


def overlap_bound(x: np.ndarray, y: np.ndarray) -> float:
    """q = -2 ln max |<x_i|y_j>|."""
    return -2.0 * math.log(float(np.abs(x.conj().T @ y).max()))


def irreality(basis: np.ndarray, rho: np.ndarray, d_b: int) -> float:
    return entropy(dephase(basis, rho, d_b)) - entropy(rho)


def uncertainty(basis: np.ndarray, rho: np.ndarray, d_a: int, d_b: int) -> float:
    """H(X|B) = S(dephased) - S(rho_B)."""
    return entropy(dephase(basis, rho, d_b)) - entropy(marginal_b(rho, d_a, d_b))


def slacks(rho, x, y, eps, d_a: int, d_b: int) -> dict[str, float]:
    """Signed slack of every relation; identities as -residual (here 0)."""
    h_ab = entropy(rho)
    h_b = entropy(marginal_b(rho, d_a, d_b))
    s_x = entropy(dephase(x, rho, d_b))
    s_y = entropy(dephase(y, rho, d_b))
    h_xb, h_yb = s_x - h_b, s_y - h_b
    irr_x, irr_y = s_x - h_ab, s_y - h_ab
    h_ab_cond = h_ab - h_b
    q = overlap_bound(x, y)
    out = {
        "eq5": h_xb + h_yb - q - h_ab_cond,
        "eq7": 0.0,
        "eq8": 0.0,
        "eq9": irr_x + h_yb - q,
        "eq10": irr_x + irr_y - q + h_ab_cond,
        "eq11": h_xb + irr_x + h_yb + irr_y - 2.0 * q,
    }
    if eps is not None:
        out["eq16"] = irreality(x, monitored(y, eps, rho, d_b), d_b) + h_yb - q
    return out


def sweep_reference(rho, x, y, grid, d_a: int, d_b: int):
    """irr(X) and H(Y|B) of the Y-monitored state at each grid strength."""
    irr = np.array([irreality(x, monitored(y, e, rho, d_b), d_b) for e in grid])
    unc = np.array([uncertainty(y, monitored(y, e, rho, d_b), d_a, d_b) for e in grid])
    return irr, unc


# ---------------------------------------------------------------- checks


def check_campaign_records(seed: int, records) -> None:
    """Per-trial slacks of an induced-mixed campaign against the reference.

    ``records`` are (trial, d_a, d_b, eps, slacks) tuples in trial order.
    """
    if not records:
        raise CheckFailed("campaign returned no trials")
    for trial, d_a, d_b, eps, got in records:
        where = f"trial {trial} at ({d_a}, {d_b})"
        if set(got) != set(RELATIONS):
            raise CheckFailed(f"{where}: relations {sorted(got)} != {sorted(RELATIONS)}")
        for name in IDENTITIES:
            if abs(got[name]) > TOL:
                raise CheckFailed(f"{where}: {name} residual {abs(got[name]):.3e} > {TOL:.0e}")
        for name, value in got.items():
            if value < -TOL:
                raise CheckFailed(f"{where}: {name} violated, slack {value:.3e}")
        additivity = abs(got["eq11"] - (got["eq5"] + got["eq10"]))
        if additivity > TOL:
            raise CheckFailed(f"{where}: slack(eq11) - slack(eq5) - slack(eq10) = {additivity:.3e}")
        rho, x, y, ref_eps = campaign_inputs(seed, trial, d_a, d_b)
        if eps != ref_eps:
            raise CheckFailed(f"{where}: eps {eps!r} != stream value {ref_eps!r}")
        ref = slacks(rho, x, y, ref_eps, d_a, d_b)
        for name in RELATIONS:
            err = abs(got[name] - ref[name])
            if err > REF_TOL:
                raise CheckFailed(
                    f"{where}: {name} slack {got[name]:.12f} is {err:.3e} from reference {ref[name]:.12f}"
                )


def check_campaign_files(records, csv_text: str, result: dict, manifest: dict) -> None:
    """The files one `qir verify` run wrote agree with the records it computed."""
    lines = csv_text.splitlines()
    if lines[0] != "trial,dA,dB,relation,slack":
        raise CheckFailed(f"slacks.csv header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(records) * len(RELATIONS):
        raise CheckFailed(f"slacks.csv has {len(rows)} rows for {len(records)} trials")
    by_key = {(int(t), rel): float(s) for t, _, _, rel, s in rows}
    for trial, _, _, _, got in records:
        for name, value in got.items():
            if abs(by_key.get((trial, name), math.inf) - value) > 1e-9:
                raise CheckFailed(f"slacks.csv trial {trial} {name} != computed {value!r}")
    if result.get("total_trials") != len(records):
        raise CheckFailed(f"campaign_result total_trials {result.get('total_trials')}")
    for name in RELATIONS:
        summary = result.get("relations", {}).get(name)
        if summary is None:
            raise CheckFailed(f"campaign_result has no summary of {name}")
        low = min(rec[4][name] for rec in records)
        if summary["violations"] != 0 or summary["min_slack"] != low:
            raise CheckFailed(f"campaign_result {name}: {summary['violations']} violations, "
                              f"min slack {summary['min_slack']!r} vs {low!r}")
    if sorted(manifest.get("outputs", [])) != ["campaign_result.json", "slacks.csv"]:
        raise CheckFailed(f"manifest outputs {manifest.get('outputs')}")


def check_sweep(grid, irr, unc, slack, ref_irr) -> None:
    """A completed monitoring sweep: flat H(Y|B), eq16 kept, irr(X) as referenced."""
    drift = float(np.max(unc) - np.min(unc))
    if drift > TOL:
        raise CheckFailed(f"H(Y|B) drifts by {drift:.3e} along the sweep")
    if float(np.min(slack)) < -TOL:
        raise CheckFailed(f"eq16 slack {np.min(slack):.3e} below -{TOL:.0e}")
    err = np.abs(np.asarray(irr) - ref_irr)
    k = int(err.argmax())
    if err[k] > REF_TOL:
        raise CheckFailed(f"irr(X) at eps={grid[k]} off the reference by {err[k]:.3e}")


def check_refused_sweep(exc: BaseException, ref_irr, invariant_violation: type) -> None:
    """A refused sweep is qir's rising-irreality rejection, and irr(X) does rise."""
    if not isinstance(exc, invariant_violation) or "irreality increased" not in str(exc):
        raise CheckFailed(f"sweep refused by {type(exc).__name__}: {exc}")
    rise = float(np.max(np.diff(ref_irr)))
    if rise <= TOL:
        raise CheckFailed(f"sweep refused although the reference irr(X) never rises ({rise:.3e})")


def check_minimize(best_slack: float, rho, x, y, d_a: int, d_b: int,
                   evaluations: int, restarts_used: int, restarts: int, budget: int) -> None:
    """A `minimize_slack("eq11", ...)` result replays and used its whole budget."""
    if best_slack < -TOL:
        raise CheckFailed(f"best eq11 slack {best_slack:.3e} below -{TOL:.0e}")
    ref = slacks(rho, x, y, None, d_a, d_b)["eq11"]
    if abs(best_slack - ref) > REF_TOL:
        raise CheckFailed(f"best slack {best_slack!r} replays as {ref!r}")
    if restarts_used != restarts or evaluations != restarts * budget:
        raise CheckFailed(
            f"{evaluations} evaluations in {restarts_used} restarts; expected "
            f"{restarts} restarts of {budget}"
        )
