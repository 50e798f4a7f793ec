"""JSON and CSV forms of matrices, states, and campaign artifacts.

The matrix interchange format is shared repo-wide:

    { "dim": n, "re": [n*n reals, row-major], "im": [n*n reals, row-major] }

States prepend ``{"dA": ..., "dB": ...}`` and bases ``{"d": ...}``. JSON
files keep full float precision (so replays are bit-exact); the 9-decimal
formatting rule applies to CSV files and printed tables only.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import ConfigError
from .explore import CampaignConfig, CampaignResult, MinimizeResult, SweepTrace, TrialRecord
from .states import BipartiteState, ObservableBasis


def fmt_nats(value: float) -> str:
    """Fixed 9-decimal rendering used in CSV files and tables."""
    text = f"{float(value):.9f}"
    return "0.000000000" if text == "-0.000000000" else text


def matrix_to_dict(m: np.ndarray) -> dict:
    a = np.asarray(m, dtype=np.complex128)
    return {
        "dim": int(a.shape[0]),
        "re": [float(v) for v in a.real.ravel()],
        "im": [float(v) for v in a.imag.ravel()],
    }


def matrix_from_dict(d: dict) -> np.ndarray:
    try:
        dim = int(d["dim"])
        re = np.asarray(d["re"], dtype=float)
        im = np.asarray(d["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad matrix object: {exc}") from exc
    if dim < 1:
        raise ConfigError(f"bad matrix object: dim must be >= 1, got {dim}")
    if re.shape != (dim * dim,) or im.shape != (dim * dim,):
        raise ConfigError(f"matrix entry counts do not match dim {dim}")
    return (re + 1j * im).reshape(dim, dim)


def state_to_dict(state: BipartiteState) -> dict:
    return {"dA": state.d_a, "dB": state.d_b, **matrix_to_dict(state.rho)}


def state_from_dict(d: dict) -> BipartiteState:
    try:
        d_a, d_b = int(d["dA"]), int(d["dB"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad state object: {exc}") from exc
    m = matrix_from_dict(d)
    if d_a < 2 or d_b < 1:
        raise ConfigError(f"bad state object: need dA >= 2 and dB >= 1, got ({d_a}, {d_b})")
    if m.shape[0] != d_a * d_b:
        raise ConfigError(f"bad state object: dim {m.shape[0]} != dA*dB = {d_a * d_b}")
    return BipartiteState(d_a, d_b, m)


def basis_to_dict(basis: ObservableBasis) -> dict:
    return {"d": basis.d, **matrix_to_dict(basis.vectors)}


def basis_from_dict(d: dict) -> ObservableBasis:
    try:
        dim = int(d["d"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad basis object: {exc}") from exc
    m = matrix_from_dict(d)
    if m.shape[0] != dim:
        raise ConfigError(f"bad basis object: dim {m.shape[0]} != d = {dim}")
    return ObservableBasis(dim, m)


def campaign_config_to_dict(cfg: CampaignConfig) -> dict:
    return {
        "dims": [list(d) for d in cfg.dims],
        "trials": cfg.trials,
        "seed": cfg.seed,
        "relations": list(cfg.relations),
        "ensemble": cfg.ensemble,
        "tol": cfg.tol,
    }


def campaign_result_to_dict(result: CampaignResult) -> dict:
    relations = {}
    for name, s in result.relations.items():
        relations[name] = {
            "kind": s.kind,
            "min_slack": s.min_slack,
            "argmin": {
                "seed": s.argmin.seed,
                "trial": s.argmin.trial,
                "dA": s.argmin.d_a,
                "dB": s.argmin.d_b,
            },
            "violations": s.violations,
            "histogram": {
                "edges": list(s.histogram.edges),
                "counts": list(s.histogram.counts),
                "underflow": s.histogram.underflow,
                "overflow": s.histogram.overflow,
            },
        }
    return {
        "config": campaign_config_to_dict(result.config),
        "total_trials": result.total_trials,
        "relations": relations,
    }


def argmin_to_dict(result: MinimizeResult) -> dict:
    out = {
        "relation": result.relation,
        "dA": result.d_a,
        "dB": result.d_b,
        "seed": result.seed,
        "best_slack": result.best_slack,
        "eps": result.eps,
        "evaluations": result.evaluations,
        "restarts_used": result.restarts_used,
        "state": state_to_dict(result.state),
        "x": basis_to_dict(result.x),
        "y": basis_to_dict(result.y),
    }
    return out


def argmin_from_dict(d: dict) -> dict:
    """Decode an argmin file into evaluable pieces.

    Returns a dict with keys relation, state, x, y, eps, best_slack.
    """
    try:
        return {
            "relation": str(d["relation"]),
            "state": state_from_dict(d["state"]),
            "x": basis_from_dict(d["x"]),
            "y": basis_from_dict(d["y"]),
            "eps": None if d.get("eps") is None else float(d["eps"]),
            "best_slack": float(d["best_slack"]),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad argmin object: {exc}") from exc


def write_json(path: str, obj: dict) -> None:
    """Atomic JSON write (temp file + rename), stable key order."""
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _atomic_write(path, text)


def write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    """Atomic CSV write: comma-separated, LF line endings, one header row."""
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def trial_csv_rows(records: list[TrialRecord], relations: tuple[str, ...]) -> list[list[str]]:
    """Long-format per-trial slack rows: trial, dA, dB, relation, slack."""
    rows = []
    for rec in records:
        for name in relations:
            rows.append(
                [str(rec.trial), str(rec.d_a), str(rec.d_b), name, fmt_nats(rec.slacks[name])]
            )
    return rows


def sweep_csv_rows(trace: SweepTrace) -> list[list[str]]:
    """Sweep rows: eps, irreality_x, uncertainty_y, q, bound_slack."""
    slack = trace.bound_slack()
    return [
        [
            fmt_nats(trace.eps_grid[i]),
            fmt_nats(trace.irreality_x[i]),
            fmt_nats(trace.uncertainty_y[i]),
            fmt_nats(trace.bound_q),
            fmt_nats(slack[i]),
        ]
        for i in range(len(trace.eps_grid))
    ]
