"""Every output check rejects a deliberately wrong result.

Run from the root of the repository with ``python3 -m pytest qirbench``.
Each test first shows that the check accepts the right answer, then feeds
it a wrong one and expects ``CheckFailed``.
"""

import math
import os
import sys

import numpy as np
import pytest

import checks
from checks import CheckFailed

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SEED = 5
TRIALS = ((0, 2, 1), (1, 2, 2), (2, 3, 2))  # (trial, d_a, d_b)


def reference_records():
    out = []
    for trial, d_a, d_b in TRIALS:
        rho, x, y, eps = checks.campaign_inputs(SEED, trial, d_a, d_b)
        out.append((trial, d_a, d_b, eps, checks.slacks(rho, x, y, eps, d_a, d_b)))
    return out


def test_campaign_accepts_reference():
    checks.check_campaign_records(SEED, reference_records())


@pytest.mark.parametrize("relation", checks.RELATIONS)
def test_campaign_slack_shifted_by_1e_6(relation):
    records = reference_records()
    records[-1][4][relation] += 1e-6
    with pytest.raises(CheckFailed):
        checks.check_campaign_records(SEED, records)


def test_campaign_uncertainty_without_h_b():
    """H(X|B) computed as S(dephased) alone, with the identities built on it."""
    records = []
    for trial, d_a, d_b in TRIALS:
        rho, x, y, eps = checks.campaign_inputs(SEED, trial, d_a, d_b)
        h_ab = checks.entropy(rho)
        h_b = checks.entropy(checks.marginal_b(rho, d_a, d_b))
        s_x, s_y = (checks.entropy(checks.dephase(v, rho, d_b)) for v in (x, y))
        h_xb, h_yb = s_x, s_y  # the fault: H(B) left out
        irr_x, irr_y = s_x - h_ab, s_y - h_ab
        cond = h_ab - h_b
        q = checks.overlap_bound(x, y)
        irr_mon = checks.irreality(x, checks.monitored(y, eps, rho, d_b), d_b)
        side_x, side_y = h_xb - irr_x, h_yb - irr_y
        records.append((trial, d_a, d_b, eps, {
            "eq5": h_xb + h_yb - q - cond,
            "eq7": -abs(irr_x - (h_xb - cond)),
            "eq8": -max(abs(side_x - side_y), abs(side_x - cond), abs(side_y - cond)),
            "eq9": irr_x + h_yb - q,
            "eq10": irr_x + irr_y - q + cond,
            "eq11": h_xb + irr_x + h_yb + irr_y - 2 * q,
            "eq16": irr_mon + h_yb - q,
        }))
    with pytest.raises(CheckFailed):
        checks.check_campaign_records(SEED, records)


def test_campaign_files_must_match_records():
    records = reference_records()

    def csv_of(shift):
        rows = [f"{t},{a},{b},{name},{value + shift * (name == 'eq9'):.9f}"
                for t, a, b, _, s in records for name, value in s.items()]
        return "trial,dA,dB,relation,slack\n" + "\n".join(rows) + "\n"

    csv = csv_of(0.0)
    result = {"total_trials": len(records), "relations": {
        name: {"violations": 0, "min_slack": min(r[4][name] for r in records)}
        for name in checks.RELATIONS}}
    manifest = {"outputs": ["campaign_result.json", "slacks.csv"]}
    checks.check_campaign_files(records, csv, result, manifest)
    with pytest.raises(CheckFailed):
        checks.check_campaign_files(records, csv_of(1e-6), result, manifest)
    result["relations"]["eq9"]["violations"] = 1
    with pytest.raises(CheckFailed):
        checks.check_campaign_files(records, csv, result, manifest)


def sweep_config():
    rng = checks.philox(SEED, 0)
    rho = checks.induced_mixed(rng, 4, 4)
    x, y = checks.haar_basis(rng, 2), checks.haar_basis(rng, 2)
    return rho, x, y


def test_sweep_whose_uncertainty_drifts():
    grid = np.linspace(0.0, 1.0, 21)
    rho, x, y = sweep_config()
    irr, unc = checks.sweep_reference(rho, x, y, grid, 2, 2)
    q = checks.overlap_bound(x, y)
    checks.check_sweep(grid, irr, unc, irr + unc - q, irr)
    drifting = unc + np.linspace(0.0, 1e-6, grid.size)
    with pytest.raises(CheckFailed):
        checks.check_sweep(grid, irr, drifting, irr + drifting - q, irr)


def test_sweep_irreality_off_reference():
    grid = np.linspace(0.0, 1.0, 21)
    rho, x, y = sweep_config()
    irr, unc = checks.sweep_reference(rho, x, y, grid, 2, 2)
    q = checks.overlap_bound(x, y)
    with pytest.raises(CheckFailed):
        checks.check_sweep(grid, irr + 1e-6, unc, irr + unc - q, irr)


class Refusal(Exception):
    pass


def test_refused_sweep_must_be_the_rising_irreality_refusal():
    grid = np.linspace(0.0, 1.0, 21)
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    rising, _ = checks.sweep_reference(np.diag([1.0, 0.0]).astype(complex), np.eye(2),
                                       np.array([[c, -s], [s, c]]), grid, 2, 1)
    right = Refusal("irreality increased by 1.0e-02 along the sweep")
    checks.check_refused_sweep(right, rising, Refusal)
    with pytest.raises(CheckFailed):
        checks.check_refused_sweep(ValueError("irreality increased"), rising, Refusal)
    with pytest.raises(CheckFailed):
        checks.check_refused_sweep(Refusal("monitored-observable uncertainty drifted"), rising, Refusal)
    plus = np.full((2, 2), 0.5, dtype=complex)  # |+><+|, monitored in its own dephasing basis
    falling, _ = checks.sweep_reference(plus, np.eye(2), np.eye(2), grid, 2, 1)
    with pytest.raises(CheckFailed):
        checks.check_refused_sweep(right, falling, Refusal)


def minimize_case():
    rng = checks.philox(SEED, 1)
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = z / np.linalg.norm(z)
    rho = np.outer(psi, psi.conj())
    x, y = checks.haar_basis(rng, 2), checks.haar_basis(rng, 2)
    return checks.slacks(rho, x, y, None, 2, 2)["eq11"], rho, x, y


def test_minimize_replayed_slack_disagrees():
    best, rho, x, y = minimize_case()
    checks.check_minimize(best, rho, x, y, 2, 2, 120, 2, 2, 60)
    with pytest.raises(CheckFailed):
        checks.check_minimize(best + 1e-6, rho, x, y, 2, 2, 120, 2, 2, 60)


def test_minimize_budget_not_used_up():
    best, rho, x, y = minimize_case()
    with pytest.raises(CheckFailed):
        checks.check_minimize(best, rho, x, y, 2, 2, 119, 2, 2, 60)


def test_tracer_counts_repeat_and_originals_come_back():
    sys.path.insert(0, SRC)
    import qir
    from tracer import Tracer

    rho, x, y = sweep_config()
    state = qir.BipartiteState(2, 2, rho)
    basis = qir.ObservableBasis(2, x)
    originals = (qir.entropies.dephase, qir.channels.dephase, qir.linalg.herm_eig)
    tracer = Tracer()
    tracer.install()
    try:
        assert qir.entropies.dephase is qir.channels.dephase is qir.relations.dephase
        assert qir.entropies.dephase is not originals[1]
        qir.uncertainty(basis, state)
        first = (tracer.stats["channels.dephase"].calls, tracer.stats["backend.jacobi_eigh"].calls,
                 tracer.rotations)
        qir.uncertainty(basis, state)
    finally:
        tracer.remove()
    assert first[0] == 1 and first[1] == 2 and first[2] > 0
    assert (tracer.stats["channels.dephase"].calls, tracer.stats["backend.jacobi_eigh"].calls,
            tracer.rotations) == tuple(2 * v for v in first)
    assert (qir.entropies.dephase, qir.channels.dephase, qir.linalg.herm_eig) == originals



def test_sweep_handed_draws_build_the_selected_inputs():
    sys.path.insert(0, SRC)
    import qir
    from workloads import Sweep

    selected = Sweep(qir, SEED, None)
    selected.setup()
    handed = Sweep(qir, SEED, None)
    handed.draws = list(selected.draws)
    handed.setup()
    assert len(handed.configs) == len(selected.configs) == 20
    for ours, theirs in zip(selected.configs, handed.configs):
        assert ours[:3] == theirs[:3]
        assert all(np.array_equal(u, v) for u, v in zip(ours[3:6], theirs[3:6]))
