import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qir import linalg, relations
from qir.channels import monitor
from qir.entropies import cond_entropy, irreality, shannon, uncertainty, vn_entropy
from qir.errors import ConfigError, DimensionMismatch
from qir.relations import (
    RELATIONS,
    IdentityReport,
    InequalityReport,
    entropy_bundle,
    evaluate_relations,
    mu_bound,
    _bundle,
    _bundles,
    _overlaps,
    mu_overlap,
)
from qir.states import (
    computational_basis,
    fourier_basis,
    haar_random_pure,
    max_entangled,
    max_mixed,
    random_basis,
    random_mixed,
    werner,
)

from conftest import blocks, marginal_b

LN2 = math.log(2.0)
ACCEPTANCE_DIMS = tuple((d_a, d_b) for d_a in (2, 3, 4, 5) for d_b in (1, 2, 3))


def random_config(i, d_a=2, d_b=2):
    state = random_mixed(d_a, d_b, d_a * d_b, (600, i))
    x = random_basis(d_a, (601, i))
    y = random_basis(d_a, (602, i))
    return state, x, y


class TestMuBound:
    def test_same_basis(self):
        x = computational_basis(3)
        assert mu_overlap(x, x) == 1.0
        assert abs(mu_bound(x, x)) <= 1e-12

    def test_fourier_pair_values(self):
        for d in (2, 3, 5):
            x, y = computational_basis(d), fourier_basis(d)
            assert abs(mu_overlap(x, y) - 1 / math.sqrt(d)) <= 1e-12
            assert abs(mu_bound(x, y) - math.log(d)) <= 1e-10

    def test_matches_exhaustive_scan(self):
        x, y = random_basis(2, 1), random_basis(2, 2)
        best = max(
            abs(np.vdot(x.vectors[:, i], y.vectors[:, j])) for i in range(2) for j in range(2)
        )
        assert abs(mu_overlap(x, y) - best) <= 1e-15

    def test_symmetry(self):
        for i in range(10):
            x, y = random_basis(3, (610, i)), random_basis(3, (611, i))
            assert abs(mu_bound(x, y) - mu_bound(y, x)) <= 1e-12

    def test_range(self):
        for i in range(10):
            x, y = random_basis(4, (620, i)), random_basis(4, (621, i))
            c = mu_overlap(x, y)
            assert 1 / 2 - 1e-12 <= c <= 1 + 1e-12
            assert -1e-9 <= mu_bound(x, y) <= math.log(4) + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mu_overlap(computational_basis(2), computational_basis(3))

    def test_stacked_overlaps_are_bitwise_mu_overlap(self):
        for d in (2, 3, 4, 5):
            xs = [random_basis(d, (630, d, i)) for i in range(20)]
            ys = [random_basis(d, (631, d, i)) for i in range(20)]
            stacked = _overlaps(np.array([x.vectors for x in xs]), np.array([y.vectors for y in ys]))
            assert stacked.tobytes() == np.array([mu_overlap(x, y) for x, y in zip(xs, ys)]).tobytes(), d


class TestNamedCases:
    """Both saturating configurations, checked against every relation."""

    def setup_method(self):
        self.x = computational_basis(2)
        self.y = fourier_basis(2)
        self.bell = max_entangled(2)
        self.mixed = max_mixed(2, 2)

    def test_memory_ur_saturates(self):
        r = evaluate_relations(["eq5"], self.x, self.y, self.bell)["eq5"]
        assert abs(r.lhs) <= 1e-9 and abs(r.rhs) <= 1e-9 and abs(r.slack) <= 1e-9
        r = evaluate_relations(["eq5"], self.x, self.y, self.mixed)["eq5"]
        assert abs(r.lhs - 2 * LN2) <= 1e-9 and abs(r.slack) <= 1e-9

    def test_constraint1_values(self):
        r = evaluate_relations(["eq7"], self.x, None, self.bell)["eq7"]
        assert r.residual <= 1e-9 and r.holds
        r = evaluate_relations(["eq7"], self.x, None, self.mixed)["eq7"]
        assert r.residual <= 1e-9

    def test_constraint2_values(self):
        r = evaluate_relations(["eq8"], self.x, self.y, self.bell)["eq8"]
        assert r.residual <= 1e-9
        # both sides equal H(A|B) = -ln 2 on the maximally entangled state
        assert abs(cond_entropy(self.bell) + LN2) <= 1e-9

    def test_constraint2_same_observable(self):
        state, x, _ = random_config(21, 3, 2)
        assert evaluate_relations(["eq8"], x, x, state)["eq8"].residual <= 1e-12

    def test_mixed_ur_saturates(self):
        # r2 is the swapped ordering, H(X|B) + irr(Y) >= q: eq9 with X and Y exchanged
        r1 = evaluate_relations(["eq9"], self.x, self.y, self.bell)["eq9"]
        r2 = evaluate_relations(["eq9"], self.y, self.x, self.bell)["eq9"]
        assert abs(r1.lhs - LN2) <= 1e-9 and abs(r1.slack) <= 1e-9
        assert abs(r1.lhs - r2.lhs) <= 1e-9
        r1 = evaluate_relations(["eq9"], self.x, self.y, self.mixed)["eq9"]
        assert abs(r1.slack) <= 1e-9

    def test_irreality_ur_saturates(self):
        r = evaluate_relations(["eq10"], self.x, self.y, self.bell)["eq10"]
        assert abs(r.lhs - 2 * LN2) <= 1e-9 and abs(r.slack) <= 1e-9
        r = evaluate_relations(["eq10"], self.x, self.y, self.mixed)["eq10"]
        assert abs(r.lhs) <= 1e-9 and abs(r.slack) <= 1e-9

    def test_combined_ur_saturates_both_cases(self):
        for state in (self.bell, self.mixed):
            r = evaluate_relations(["eq11"], self.x, self.y, state)["eq11"]
            assert abs(r.slack) <= 1e-9
            assert abs(r.rhs - 2 * LN2) <= 1e-9

    def test_monitor_bound_fully_complementary(self):
        for eps in (0.0, 0.3, 1.0):
            r = evaluate_relations(["eq16"], self.x, self.y, self.bell, eps=eps)["eq16"]
            # irreality stays pinned at ln 2 when q is maximal and H(Y|B) = 0
            assert abs(r.lhs - LN2) <= 1e-9 and abs(r.slack) <= 1e-9

    def test_monitor_bound_eps_zero_reduces_to_mixed_ur(self):
        state, x, y = random_config(3)
        reports = evaluate_relations(["eq16", "eq9"], x, y, state, eps=0.0)
        r_mon, r_mix = reports["eq16"], reports["eq9"]
        assert abs(r_mon.lhs - r_mix.lhs) <= 1e-12
        assert r_mon.rhs == r_mix.rhs


class TestWernerCase:
    def test_constraint1_werner_values(self):
        x = computational_basis(2)
        r = evaluate_relations(["eq7"], x, None, werner(0.5))["eq7"]
        assert r.residual <= 1e-9
        assert abs(irreality(x, werner(0.5)) - 0.181939) <= 1e-6

    def test_irreality_ur_nonnegative(self):
        r = evaluate_relations(["eq10"], computational_basis(2), fourier_basis(2), werner(0.5))["eq10"]
        assert r.slack >= -1e-9


class TestRandomCampaignProperties:
    def test_identities_hold_on_random_triples(self):
        for i in range(100):
            state, x, y = random_config(i, 3, 2)
            reports = evaluate_relations(["eq7", "eq8"], x, y, state)
            assert reports["eq7"].residual <= 1e-9
            assert reports["eq8"].residual <= 1e-9

    def test_inequalities_hold_on_random_triples(self):
        rng = np.random.default_rng(5)
        for i in range(100):
            state, x, y = random_config(i)
            reports = evaluate_relations(tuple(RELATIONS), x, y, state, eps=float(rng.uniform()))
            assert reports["eq5"].slack >= -1e-9
            r1, r2 = reports["eq9"], evaluate_relations(["eq9"], y, x, state)["eq9"]
            assert r1.slack >= -1e-9 and r2.slack >= -1e-9
            assert abs(r1.lhs - r2.lhs) <= 1e-9
            assert reports["eq10"].slack >= -1e-9
            assert reports["eq11"].slack >= -1e-9
            assert reports["eq16"].slack >= -1e-9

    def test_slack_additivity(self):
        # the four-term bound is the sum of the memory and irreality bounds
        for i in range(50):
            state, x, y = random_config(i, 3, 3)
            reports = evaluate_relations(["eq5", "eq10", "eq11"], x, y, state)
            s5, s10, s11 = (reports[name].slack for name in ("eq5", "eq10", "eq11"))
            assert abs(s11 - (s5 + s10)) <= 1e-9

    def test_uncertainty_below_irreality_implies_entanglement(self):
        found = 0
        for i in range(200):
            state = haar_random_pure(2, 2, (700, i))
            x = random_basis(2, (701, i))
            if uncertainty(x, state) < irreality(x, state) - 1e-9:
                found += 1
                assert cond_entropy(state) < 0
        assert found > 0

    def test_pure_state_triples(self):
        for i in range(50):
            state = haar_random_pure(3, 2, (710, i))
            x, y = random_basis(3, (711, i)), random_basis(3, (712, i))
            assert evaluate_relations(["eq11"], x, y, state)["eq11"].slack >= -1e-9


class TestRealityChange:
    """The drop in irreality of X from a state to its monitored image."""

    def test_full_realization_in_own_basis(self):
        x = computational_basis(2)
        bell = max_entangled(2)
        realized = monitor(x, 1.0, bell)
        assert abs(irreality(x, bell) - irreality(x, realized) - LN2) <= 1e-9

    def test_complementary_monitoring_keeps_reality(self):
        x, y = computational_basis(2), fourier_basis(2)
        bell = max_entangled(2)
        for eps in (0.2, 0.6, 1.0):
            assert abs(irreality(x, bell) - irreality(x, monitor(y, eps, bell))) <= 1e-9

    def test_upper_bound_under_monitoring(self):
        rng = np.random.default_rng(7)
        for i in range(50):
            state, x, y = random_config(i)
            eps = float(rng.uniform())
            delta = irreality(x, state) - irreality(x, monitor(y, eps, state))
            upper = irreality(x, state) + uncertainty(y, state) - mu_bound(x, y)
            assert delta <= upper + 1e-9

    def test_nonnegative_under_own_monitoring(self):
        # the lower bound delta >= 0 is provable only when Y = X; the
        # cross-observable version has counterexamples (test below)
        rng = np.random.default_rng(8)
        for i in range(50):
            state, x, _ = random_config(i)
            eps = float(rng.uniform())
            assert irreality(x, state) - irreality(x, monitor(x, eps, state)) >= -1e-9

    def test_cross_monitoring_can_destroy_reality(self):
        from qir.states import BipartiteState, ObservableBasis

        state = BipartiteState(2, 1, np.diag([1.0, 0.0]))
        x = computational_basis(2)
        a, b = math.cos(math.pi / 8), math.sin(math.pi / 8)
        y = ObservableBasis(2, np.array([[a, -b], [b, a]]))
        delta = irreality(x, state) - irreality(x, monitor(y, 1.0, state))
        assert delta < -0.14  # reality strictly drops; -0.145840 nats


class TestEntropyBundle:
    def test_fields_are_bitwise_the_per_point_route(self):
        # the per-point route: one herm_eig call per block and for rho_B
        def per_block(x, rho):
            spectra = [linalg.herm_eig(b).eigenvalues for b in blocks(x, rho)]
            return shannon(np.clip(np.concatenate(spectra), 0.0, None))

        dims = tuple((d_a, d_b) for d_a in (2, 3, 4, 5) for d_b in (1, 2, 3))
        for k, (d_a, d_b) in enumerate(dims):
            for rho in (random_mixed(d_a, d_b, d_a * d_b, (70, k)), haar_random_pure(d_a, d_b, (71, k))):
                x, y = random_basis(d_a, (72, k)), random_basis(d_a, (73, k))
                b = entropy_bundle(x, rho, y)
                h_ab = vn_entropy(rho)
                h_b = shannon(np.clip(linalg.herm_eig(marginal_b(rho)).eigenvalues, 0.0, None))
                h_xb, h_yb = per_block(x, rho), per_block(y, rho)
                expected = (h_ab, h_b, h_xb - h_b, h_xb - h_ab, h_yb - h_b, h_yb - h_ab, mu_bound(x, y))
                got = (b.h_ab, b.h_b, b.h_x_given_b, b.irreality_x, b.h_y_given_b, b.irreality_y, b.q)
                assert got == expected, (d_a, d_b)
                assert (b.h_x_given_b, b.irreality_x) == (uncertainty(x, rho), irreality(x, rho))
                assert (b.h_y_given_b, b.irreality_y) == (uncertainty(y, rho), irreality(y, rho))
                x_only = entropy_bundle(x, rho)
                assert (x_only.h_x_given_b, x_only.irreality_x) == (b.h_x_given_b, b.irreality_x)
                assert x_only.h_y_given_b is x_only.irreality_y is x_only.q is None


class TestRegistry:
    def test_known_names_and_kinds(self):
        assert set(RELATIONS) == {"eq5", "eq7", "eq8", "eq9", "eq10", "eq11", "eq16"}
        assert RELATIONS["eq7"].kind == "identity"
        assert RELATIONS["eq16"].needs_eps

    def test_rows_match_their_reports(self):
        state, x, y = random_config(15)
        kinds = {"identity": IdentityReport, "inequality": InequalityReport}
        for name, row in RELATIONS.items():
            assert row.name == name
            report = evaluate_relations((name,), x, y, state, eps=0.3)[name]
            assert type(report) is kinds[row.kind]
            assert report.name == name
            if row.needs_eps:
                with pytest.raises(ConfigError):
                    evaluate_relations((name,), x, y, state)
            else:
                assert evaluate_relations((name,), x, y, state)[name] == report

    def test_evaluate_matches_individual_checks(self):
        # each report against its formula written from the public per-quantity
        # functions, compared by repr: every float to the bit
        tol = 1e-9
        for k, (d_a, d_b) in enumerate(ACCEPTANCE_DIMS):
            for state in (random_mixed(d_a, d_b, d_a * d_b, (80, k)), haar_random_pure(d_a, d_b, (81, k))):
                x, y = random_basis(d_a, (82, k)), random_basis(d_a, (83, k))
                h_x, h_y = uncertainty(x, state), uncertainty(y, state)
                irr_x, irr_y = irreality(x, state), irreality(y, state)
                h_a, q = cond_entropy(state), mu_bound(x, y)
                a, b, c = h_x - irr_x, h_y - irr_y, h_a  # the three sides of eq8
                for eps in (0.0, 0.4, 1.0):
                    expected = {
                        "eq5": InequalityReport("eq5", h_x + h_y, q + h_a, tol),
                        "eq7": IdentityReport("eq7", abs(irr_x - (h_x - h_a)), tol),
                        "eq8": IdentityReport("eq8", max(abs(a - b), abs(a - c), abs(b - c)), tol),
                        "eq9": InequalityReport("eq9", irr_x + h_y, q, tol),
                        "eq10": InequalityReport("eq10", irr_x + irr_y, q - h_a, tol),
                        "eq11": InequalityReport("eq11", h_x + irr_x + h_y + irr_y, 2.0 * q, tol),
                        "eq16": InequalityReport("eq16", irreality(x, monitor(y, eps, state)) + h_y, q, tol),
                    }
                    reports = evaluate_relations(tuple(RELATIONS), x, y, state, eps=eps, tol=tol)
                    for name, report in reports.items():
                        assert repr(report) == repr(expected[name]), (d_a, d_b, eps, name)

    def test_report_slack_sign_convention(self):
        # every report carries its signed slack: lhs - rhs, or -residual
        state, x, y = random_config(12)
        reports = evaluate_relations(("eq5", "eq7"), x, y, state)
        assert reports["eq5"].slack == reports["eq5"].lhs - reports["eq5"].rhs
        assert reports["eq7"].slack == -reports["eq7"].residual
        assert InequalityReport("eq9", 0.25, 1.0, 1e-9).slack == -0.75
        assert IdentityReport("eq8", 2e-9, 1e-9).slack == -2e-9
        exact = IdentityReport("eq7", 0.0, 1e-9)
        assert exact.slack == 0.0 and math.copysign(1.0, exact.slack) == -1.0 and exact.holds

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_positive_and_finite(self, tol, monkeypatch):
        # before any entropy is taken: a bad tol would pass or fail every relation
        def never(*args, **kwargs):
            raise AssertionError("entropies were taken before the tolerance was checked")

        monkeypatch.setattr(relations, "_bundle", never)
        with pytest.raises(ConfigError, match=f"^tol must be positive and finite, got {tol}$"):
            evaluate_relations(("eq5", "eq7"), computational_basis(2), fourier_basis(2), werner(0.5), tol=tol)

    def test_unknown_relation_rejected(self):
        state, x, y = random_config(13)
        with pytest.raises(ConfigError):
            evaluate_relations(("eq99",), x, y, state)

    def test_eq16_requires_eps(self):
        state, x, y = random_config(14)
        with pytest.raises(ConfigError):
            evaluate_relations(("eq16",), x, y, state)

    def test_relations_that_read_y_require_it(self):
        state, x, y = random_config(16)
        assert [name for name, row in RELATIONS.items() if not row.needs_y] == ["eq7"]
        with pytest.raises(ConfigError, match="^relation eq5 needs a second basis y$"):
            evaluate_relations(("eq7", "eq5", "eq9"), x, None, state)
        with pytest.raises(ConfigError, match="^relation eq16 needs a second basis y$"):
            evaluate_relations(("eq16",), x, None, state, eps=0.3)
        report = evaluate_relations(("eq7",), x, None, state)["eq7"]
        assert report == evaluate_relations(("eq7",), x, y, state)["eq7"]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_report_fields_consistent(self, seed):
        state, x, y = random_config(seed)
        r = evaluate_relations(["eq11"], x, y, state)["eq11"]
        assert r.slack == r.lhs - r.rhs
        assert r.satisfied == (r.slack >= -r.tol)


@pytest.mark.parametrize("monitored", [False, True])
def test_bundles_of_a_stack_are_the_bundles_of_each_configuration(monitored):
    # one call over every acceptance pair (d_A sharing a d_B, and three d_B),
    # each with one basis per configuration and one shared by all, with and
    # without Y; when monitored, every other group with Y carries strengths
    groups, configurations = [], []
    for k, (d_a, d_b) in enumerate(ACCEPTANCE_DIMS):
        states = [random_mixed(d_a, d_b, d_a * d_b, (640, k, i)) for i in range(3)] + [
            haar_random_pure(d_a, d_b, (641, k))]
        xs = [random_basis(d_a, (642, k, i)) for i in range(4)]
        ys = [random_basis(d_a, (643, k, i)) for i in range(4)]
        rhos = np.array([s.rho for s in states])
        spectra = np.array([s.spectrum for s in states])
        per_row = np.array([x.vectors for x in xs]), np.array([y.vectors for y in ys])
        cases = [(per_row[0], per_row[1], xs, ys), (xs[0].vectors, ys[0].vectors, [xs[0]] * 4, [ys[0]] * 4),
                 (per_row[0], None, xs, [None] * 4)]
        for j, (x, y, x_each, y_each) in enumerate(cases):
            eps = [0.0, 0.3, 1.0, 0.75] if monitored and y is not None and (k + j) % 2 == 0 else None
            groups.append((x, y, d_a, rhos, spectra, eps))
            configurations.append((x_each, y_each, states))

    # one kernel call per slice size, and one per group for its monitored states
    calls, slices = Counter(), Counter()
    for x, y, d_a, rhos, _, eps in groups:
        n = rhos.shape[-1]
        slices[n // d_a] += len(rhos) * (1 + d_a * (1 if y is None else 2) + (0 if eps is None else d_a))
        if eps is not None:
            calls[n] += 1
            slices[n] += len(eps)
    calls.update({rhos.shape[-1] // d_a for _, _, d_a, rhos, _, _ in groups})
    start = linalg.kernel_counts()
    got = _bundles(groups)
    grown = linalg.kernel_counts(since=start)
    assert {n: c[:2] for n, c in grown.items()} == {n: (calls[n], slices[n]) for n in calls}

    assert len(got) == len(groups)
    for (x, y, d_a, rhos, _, eps), (x_each, y_each, states), bundles in zip(groups, configurations, got):
        alone = [_bundle(bx, by, s, None if eps is None else e)
                 for bx, by, s, e in zip(x_each, y_each, states, eps or [None] * 4)]
        assert bundles == alone, (d_a, rhos.shape[-1] // d_a, eps is None, x.ndim, y is None)
