"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The runtime budgets
(1 s for criteria 1 and 2, 120 s for criteria 3+4, 60 s for criterion 8)
hold on either eigensolver kernel, the pure-Python one included.
"""

import math
import time

import numpy as np

from qir import entropy_bundle, serialize
from qir.channels import dephase, monitor, monitor_n
from qir.entropies import irreality, relative_entropy, uncertainty
from qir.explore import CampaignConfig, minimize_slack, run_campaign_records
from qir.linalg import herm_eig
from qir.relations import evaluate_relations, mu_bound
from qir.states import (
    computational_basis,
    fourier_basis,
    max_entangled,
    max_mixed,
    random_basis,
    random_mixed,
    werner,
)

from conftest import random_hermitian

LN2 = math.log(2.0)
ALL_DIMS = tuple((d_a, d_b) for d_a in (2, 3, 4, 5) for d_b in (1, 2, 3))
ALL_RELATIONS = ("eq5", "eq7", "eq8", "eq9", "eq10", "eq11", "eq16")


def _elapsed(t0):
    return time.perf_counter() - t0


def test_criterion_1_saturation_maximally_entangled():
    t0 = time.perf_counter()
    x, y = computational_basis(2), fourier_basis(2)
    bell = max_entangled(2)
    h_x = uncertainty(x, bell)
    h_y = uncertainty(y, bell)
    irr_x = irreality(x, bell)
    irr_y = irreality(y, bell)
    assert abs(h_x) <= 1e-9 and abs(h_y) <= 1e-9
    assert abs(irr_x - LN2) <= 1e-9 and abs(irr_y - LN2) <= 1e-9
    report = evaluate_relations(["eq11"], x, y, bell)["eq11"]
    assert abs(report.lhs - 2.0 * mu_bound(x, y)) <= 1e-9
    elapsed = _elapsed(t0)
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: entangled case H(X|B)={h_x:.2e} irr(X)={irr_x:.9f} "
        f"slack={report.slack:.2e} ({elapsed:.2f}s)"
    )


def test_criterion_2_saturation_maximally_mixed():
    t0 = time.perf_counter()
    x, y = computational_basis(2), fourier_basis(2)
    mixed = max_mixed(2, 2)
    assert abs(irreality(x, mixed)) <= 1e-9 and abs(irreality(y, mixed)) <= 1e-9
    assert abs(uncertainty(x, mixed) - LN2) <= 1e-9
    assert abs(uncertainty(y, mixed) - LN2) <= 1e-9
    report = evaluate_relations(["eq11"], x, y, mixed)["eq11"]
    assert abs(report.slack) <= 1e-9
    elapsed = _elapsed(t0)
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: mixed case slack={report.slack:.2e} ({elapsed:.2f}s)")


def _acceptance_campaigns():
    configs = [
        CampaignConfig(
            dims=ALL_DIMS, trials=2520, seed=1001, relations=ALL_RELATIONS, ensemble="haar-pure"
        ),
        CampaignConfig(
            dims=ALL_DIMS, trials=2520, seed=1002, relations=ALL_RELATIONS, ensemble="induced-mixed"
        ),
    ]
    return [run_campaign_records(cfg) for cfg in configs]


def test_criteria_3_and_4_identity_and_inequality_suites():
    t0 = time.perf_counter()
    outcomes = _acceptance_campaigns()
    total = sum(result.total_trials for result, _ in outcomes)
    assert total >= 5000

    max_residual = 0.0
    for result, _ in outcomes:
        for name in ("eq7", "eq8"):
            max_residual = max(max_residual, -result.relations[name].min_slack)
    assert max_residual <= 1e-9

    min_slacks = {}
    for result, _ in outcomes:
        for name in ("eq5", "eq9", "eq10", "eq11", "eq16"):
            summary = result.relations[name]
            assert summary.violations == 0, f"{name} violated"
            min_slacks[name] = min(min_slacks.get(name, math.inf), summary.min_slack)
    assert all(v >= -1e-9 for v in min_slacks.values())

    worst_additivity = 0.0
    for _, records in outcomes:
        for rec in records:
            gap = abs(rec.slacks["eq11"] - (rec.slacks["eq5"] + rec.slacks["eq10"]))
            worst_additivity = max(worst_additivity, gap)
    assert worst_additivity <= 1e-9

    elapsed = _elapsed(t0)
    assert elapsed < 120.0
    print(
        f"\nPASS criteria 3+4: {total} trials, max identity residual {max_residual:.2e}, "
        f"min slacks {{{', '.join(f'{k}:{v:.2e}' for k, v in min_slacks.items())}}}, "
        f"worst additivity gap {worst_additivity:.2e} ({elapsed:.1f}s)"
    )


MONITOR_DIMS = ((2, 2), (3, 2), (2, 3), (4, 2), (3, 3), (2, 1))


def _monitor_quadruple(i):
    d_a, d_b = MONITOR_DIMS[i % len(MONITOR_DIMS)]
    state = random_mixed(d_a, d_b, d_a * d_b, (2000, i))
    x = random_basis(d_a, (2001, i))
    y = random_basis(d_a, (2002, i))
    return state, x, y


def test_criterion_5a_monitoring_monotonicity():
    """Monitoring Y contracts the irreality of Y itself.

    Since Delta_Y o M^Y_eps = Delta_Y, concavity of S gives
    irr(Y | M^Y_eps rho) <= (1 - eps) * irr(Y | rho); at eps > 0 this is
    strictly below irr(Y | rho) unless that is already zero. Monitoring Y
    promises nothing of this kind for a different observable X, whose
    irreality can rise: see the pinned counterexamples
    tests/test_channels.py::TestChannelInvariants::
    test_cross_observable_counterexample and tests/test_relations.py::
    TestRealityChange::test_cross_monitoring_can_destroy_reality. The
    worst such rise on these draws is printed for information only; the
    bound that does hold across observables is eq16.
    """
    rng = np.random.default_rng(9157)
    worst_excess = -math.inf
    worst_at = None
    violations = 0
    worst_cross_rise = -math.inf
    for i in range(1000):
        state, x, y = _monitor_quadruple(i)
        eps = float(rng.uniform())
        monitored = monitor(y, eps, state)
        excess = irreality(y, monitored) - (1.0 - eps) * irreality(y, state)
        if excess > worst_excess:
            worst_excess, worst_at = excess, (i, state.d_a, state.d_b, eps)
        if excess > 1e-9:
            violations += 1
        worst_cross_rise = max(
            worst_cross_rise, irreality(x, monitored) - irreality(x, state)
        )
    assert violations == 0, (
        f"irr(Y) under Y-monitoring exceeded (1 - eps) * irr(Y) in {violations}/1000 "
        f"quadruples (worst +{worst_excess:.3e} nats at trial {worst_at[0]}, "
        f"dA={worst_at[1]}, dB={worst_at[2]}, eps={worst_at[3]:.3f})"
    )
    print(
        f"\nPASS criterion 5 (monotonicity): 1000 quadruples, max of "
        f"irr(Y|monitored) - (1-eps) irr(Y) = {worst_excess:.2e}; "
        f"cross-observable irr(X) rise up to {worst_cross_rise:.3e} (not bounded)"
    )


def test_criterion_5b_monitored_uncertainty_invariance():
    rng = np.random.default_rng(33157)
    worst = 0.0
    for i in range(1000):
        state, _, y = _monitor_quadruple(i)
        eps = float(rng.uniform())
        drift = abs(uncertainty(y, monitor(y, eps, state)) - uncertainty(y, state))
        worst = max(worst, drift)
        assert drift <= 1e-9
    print(f"\nPASS criterion 5 (H(Y|B) invariance): 1000 quadruples, max drift {worst:.2e}")


def test_criterion_5c_composition_law():
    rng = np.random.default_rng(77157)
    worst = 0.0
    for i in range(1000):
        state, _, y = _monitor_quadruple(i)
        eps = float(rng.uniform())
        n = i % 11  # covers every n in 0..10 across the campaign
        iterated = monitor_n(y, eps, n, state)
        effective = monitor(y, 1.0 - (1.0 - eps) ** n, state)
        gap = float(np.abs(iterated.rho - effective.rho).max())
        worst = max(worst, gap)
        assert gap <= 1e-10
    print(f"\nPASS criterion 5 (composition law): 1000 quadruples, max gap {worst:.2e}")


def test_criterion_6_pinching_relative_entropy_identity():
    dims = ((2, 2), (3, 2), (2, 3), (4, 1), (3, 1))
    worst = 0.0
    for i in range(1000):
        d_a, d_b = dims[i % len(dims)]
        state = random_mixed(d_a, d_b, max(1, (d_a * d_b) // (2 if i % 2 else 1)), (3000, i))
        x = random_basis(d_a, (3001, i))
        pinched = dephase(x, state)
        gap = abs(relative_entropy(state, pinched) - irreality(x, state))
        worst = max(worst, gap)
        assert gap <= 1e-8
    print(f"\nPASS criterion 6: 1000 states, max |D - irreality| = {worst:.2e}")


def test_criterion_7_werner_benchmark():
    p = entropy_bundle(computational_basis(2), werner(0.5))
    got = np.array([p.h_ab, p.h_b, p.h_a_given_b, p.h_x_given_b, p.irreality_x])
    expected = np.array([1.073543, 0.693147, 0.380396, 0.562335, 0.181939])
    gap = np.abs(got - expected).max()
    assert gap <= 1e-6
    print(f"\nPASS criterion 7: werner(0.5) profile within {gap:.2e} of closed form")


def test_criterion_8_optimizer_reaches_saturation():
    t0 = time.perf_counter()
    result = minimize_slack("eq11", 2, 2, restarts=50, seed=7, target=1e-6)
    assert result.best_slack <= 1e-6

    payload = serialize.argmin_to_dict(result)
    point = serialize.argmin_from_dict(payload)
    report = evaluate_relations(
        [point["relation"]], point["x"], point["y"], point["state"], eps=point["eps"]
    )[point["relation"]]
    drift = abs(report.slack - result.best_slack)
    assert drift <= 1e-9

    elapsed = _elapsed(t0)
    assert elapsed < 60.0
    print(
        f"\nPASS criterion 8: best slack {result.best_slack:.2e} in "
        f"{result.restarts_used} restarts / {result.evaluations} evals, "
        f"replay drift {drift:.2e} ({elapsed:.1f}s)"
    )


def test_criterion_9_eigensolver_foundation():
    rng = np.random.default_rng(4242)
    worst_recon = 0.0
    worst_unitarity = 0.0
    for i in range(1000):
        n = int(rng.integers(2, 17))
        m = random_hermitian(rng, n)
        eig = herm_eig(m)
        v, w = eig.eigenvectors, eig.eigenvalues
        recon = float(np.abs(v @ np.diag(w) @ v.conj().T - m).max())
        unit = float(np.abs(v.conj().T @ v - np.eye(n)).max())
        worst_recon = max(worst_recon, recon)
        worst_unitarity = max(worst_unitarity, unit)
        assert recon <= 1e-10 and unit <= 1e-10
    print(
        f"\nPASS criterion 9: 1000 matrices (dim <= 16), max reconstruction "
        f"{worst_recon:.2e}, max unitarity defect {worst_unitarity:.2e}"
    )
