import math

import numpy as np
import pytest

from qir.channels import (
    _dephased_matrix,
    _frame,
    _monitor_grid,
    _monitored_matrix,
    dephase,
    monitor,
    monitor_n,
)
from qir.entropies import irreality, uncertainty
from qir.errors import DimensionMismatch, OutOfRange
from qir.relations import mu_bound
from qir.states import (
    BipartiteState,
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


def projector_sum_dephase(x, rho):
    """Literal sum of (P_i x 1) rho (P_i x 1); oracle for the fast path."""
    d_a, d_b = rho.d_a, rho.d_b
    out = np.zeros_like(rho.rho)
    for i in range(d_a):
        col = x.vectors[:, i]
        p = np.kron(np.outer(col, col.conj()), np.eye(d_b))
        out += p @ rho.rho @ p
    return out


def direct_sum(x, parts):
    """sum_i |x_i><x_i| (x) block_i: the blocks placed back in the frame of x."""
    return sum(np.kron(np.outer(col, col.conj()), b) for col, b in zip(x.vectors.T, parts))


def conditionals(parts):
    """Outcome probabilities p_i = tr(block_i) and conditional states block_i / p_i."""
    probs = np.trace(parts, axis1=1, axis2=2).real
    return probs, [b / p for b, p in zip(parts, probs)]


def random_triple(i, d_a=2, d_b=2):
    state = random_mixed(d_a, d_b, d_a * d_b, (300, i))
    x = random_basis(d_a, (301, i))
    y = random_basis(d_a, (302, i))
    return state, x, y


class TestDephase:
    def test_matches_projector_sum(self):
        for i in range(10):
            state, x, _ = random_triple(i, 3, 2)
            got = dephase(x, state).rho
            assert np.abs(got - projector_sum_dephase(x, state)).max() <= 1e-12

    def test_max_mixed_is_fixed_point(self):
        state = max_mixed(2, 2)
        for basis in (computational_basis(2), fourier_basis(2), random_basis(2, 1)):
            assert np.abs(dephase(basis, state).rho - state.rho).max() <= 1e-12

    def test_max_entangled_conjugate_structure(self):
        # dephasing a maximally entangled state in basis X yields
        # (1/d) sum_i |x_i><x_i| (x) |conj(x_i)><conj(x_i)|
        for d, basis in ((2, fourier_basis(2)), (3, fourier_basis(3))):
            state = max_entangled(d)
            expected = np.zeros((d * d, d * d), dtype=complex)
            for i in range(d):
                col = basis.vectors[:, i]
                conj_col = col.conj()
                expected += np.kron(np.outer(col, col.conj()), np.outer(conj_col, conj_col.conj())) / d
            assert np.abs(dephase(basis, state).rho - expected).max() <= 1e-12

    def test_diagonal_state_is_fixed_point(self):
        x = computational_basis(2)
        rho = np.kron(np.diag([0.6, 0.4]), np.diag([0.5, 0.5]))
        state = BipartiteState(2, 2, rho)
        assert np.abs(dephase(x, state).rho - rho).max() <= 1e-12

    def test_idempotent(self):
        for i in range(10):
            state, x, _ = random_triple(i)
            once = dephase(x, state)
            twice = dephase(x, once)
            assert np.abs(twice.rho - once.rho).max() <= 1e-12

    def test_preserves_b_marginal(self):
        for i in range(10):
            state, x, _ = random_triple(i, 2, 3)
            assert np.abs(marginal_b(dephase(x, state)) - marginal_b(state)).max() <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dephase(computational_basis(3), max_mixed(2, 2))

    def test_frame_is_bytewise_kron(self):
        for d_a in (2, 3, 4, 5):
            for d_b in (1, 2, 3):
                for i in range(20):
                    x = random_basis(d_a, (303, d_a, d_b, i))
                    assert _frame(x.vectors, d_b).tobytes() == np.kron(x.vectors, np.eye(d_b)).tobytes()


class TestDephasedDecomposition:
    """Block i of ``channels._blocks`` is p_i sigma_i: the dephased state's separable form."""

    def test_max_entangled_computational(self):
        probs, cond = conditionals(blocks(computational_basis(2), max_entangled(2)))
        assert np.abs(probs - 0.5).max() <= 1e-12
        assert np.abs(cond[0] - np.diag([1.0, 0.0])).max() <= 1e-12
        assert np.abs(cond[1] - np.diag([0.0, 1.0])).max() <= 1e-12

    def test_product_state_conditionals_all_equal(self):
        sigma = np.diag([0.7, 0.3])
        state = BipartiteState(2, 2, np.kron(np.diag([0.2, 0.8]), sigma))
        _, cond = conditionals(blocks(fourier_basis(2), state))
        for c in cond:
            assert np.abs(c - sigma).max() <= 1e-12

    def test_werner_block_extraction(self):
        probs, cond = conditionals(blocks(computational_basis(2), werner(0.5)))
        assert np.abs(probs - 0.5).max() <= 1e-12
        assert np.abs(cond[0] - np.diag([0.75, 0.25])).max() <= 1e-12
        assert np.abs(cond[1] - np.diag([0.25, 0.75])).max() <= 1e-12

    def test_reconstruction(self):
        for i in range(10):
            state, x, _ = random_triple(i, 3, 2)
            parts = blocks(x, state)
            probs, _ = conditionals(parts)
            assert abs(probs.sum() - 1.0) <= 1e-10
            assert np.abs(direct_sum(x, parts) - dephase(x, state).rho).max() <= 1e-10

    def test_null_marker_for_zero_probability(self):
        # |0><0| (x) sigma: the second outcome never occurs, and its block is zero
        state = BipartiteState(2, 2, np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2))
        x = computational_basis(2)
        parts = blocks(x, state)
        assert not parts[1].any()
        assert np.abs(direct_sum(x, parts) - state.rho).max() <= 1e-10

    def test_conditionals_are_density_matrices(self):
        from qir import linalg

        for i in range(5):
            state, x, _ = random_triple(i, 2, 3)
            _, cond = conditionals(blocks(x, state))
            for c in cond:
                assert abs(np.trace(c).real - 1.0) <= 1e-10
                assert linalg.herm_eig(c).eigenvalues[0] >= -1e-10


class TestMonitor:
    def test_zero_strength_is_identity(self):
        state = werner(0.4)
        assert monitor(fourier_basis(2), 0.0, state) is state

    def test_full_strength_equals_dephase(self):
        state, _, y = random_triple(4)
        assert np.abs(monitor(y, 1.0, state).rho - dephase(y, state).rho).max() <= 1e-14

    def test_half_twice_equals_three_quarters(self):
        state, _, y = random_triple(5)
        twice = monitor(y, 0.5, monitor(y, 0.5, state))
        direct = monitor(y, 0.75, state)
        assert np.abs(twice.rho - direct.rho).max() <= 1e-12

    def test_out_of_range(self):
        state = werner(0.5)
        for eps in (-0.1, 1.1):
            with pytest.raises(OutOfRange):
                monitor(fourier_basis(2), eps, state)

    def test_composition_law(self):
        state, _, y = random_triple(6)
        for eps, n in ((0.3, 3), (0.7, 5), (0.05, 10)):
            iterated = monitor_n(y, eps, n, state)
            effective = monitor(y, 1.0 - (1.0 - eps) ** n, state)
            assert np.abs(iterated.rho - effective.rho).max() <= 1e-10

    def test_monitor_n_is_bitwise_the_chained_monitor(self):
        # monitor_n validates only its final state; each step's matrix is
        # still the one a chain of validated monitor() calls stores
        for i in range(12):
            d_a, d_b = ((2, 2), (3, 2), (2, 3), (4, 1))[i % 4]
            state, _, y = random_triple(i, d_a, d_b)
            eps = 0.05 + 0.08 * i
            chained = state
            for n in range(1, 6):
                chained = monitor(y, eps, chained)
                iterated = monitor_n(y, eps, n, state)
                assert iterated.rho.tobytes() == chained.rho.tobytes(), (i, n)
                assert iterated.spectrum.tobytes() == chained.spectrum.tobytes(), (i, n)
        assert monitor_n(y, 0.0, 3, state) is state

    def test_monitor_is_bitwise_the_constructed_state(self):
        # the state monitor returns is the one the constructor builds from
        # the dense monitored matrix
        dims = tuple((d_a, d_b) for d_a in (2, 3, 4, 5) for d_b in (1, 2, 3))
        for k, (d_a, d_b) in enumerate(dims):
            for state in (random_mixed(d_a, d_b, d_a * d_b, (310, k)), haar_random_pure(d_a, d_b, (311, k))):
                y = random_basis(d_a, (312, k))
                for eps in (0.4, 1.0):
                    dephased = _dephased_matrix(y.vectors, state.rho[None], d_a, d_b)[0]
                    built = BipartiteState(d_a, d_b, _monitored_matrix(state.rho, dephased, eps))
                    got = monitor(y, eps, state)
                    assert got.rho.tobytes() == built.rho.tobytes(), (d_a, d_b, eps)
                    assert got.spectrum.tobytes() == built.spectrum.tobytes(), (d_a, d_b, eps)

    def test_grid_rows_are_bitwise_the_monitored_states(self):
        # a row of the grid is never built into a state; it must still carry the
        # bytes of the state monitor builds, and rho's own row at strength 0
        dims = tuple((d_a, d_b) for d_a in (2, 3, 4, 5) for d_b in (1, 2, 3))
        grid = [0.0, 0.15, 0.4, 0.4, 0.85, 1.0]
        for k, (d_a, d_b) in enumerate(dims):
            for state in (random_mixed(d_a, d_b, d_a * d_b, (313, k)), haar_random_pure(d_a, d_b, (314, k))):
                y = random_basis(d_a, (315, k))
                rhos, spectra = _monitor_grid(y.vectors, grid, d_a, state.rho[None], state.spectrum[None])
                assert rhos.shape == (len(grid), d_a * d_b, d_a * d_b) and spectra.shape == (len(grid), d_a * d_b)
                for i, eps in enumerate(grid):
                    monitored = monitor(y, eps, state)
                    assert rhos[i].tobytes() == monitored.rho.tobytes(), (d_a, d_b, eps)
                    assert spectra[i].tobytes() == monitored.spectrum.tobytes(), (d_a, d_b, eps)
                assert rhos[0].tobytes() == state.rho.tobytes()
        with pytest.raises(OutOfRange, match=r"monitoring strength must lie in \[0, 1\], got 1\.5"):
            _monitor_grid(y.vectors, [0.0, 1.5], d_a, state.rho[None], state.spectrum[None])

    def test_monitor_n_edge_counts(self):
        state, _, y = random_triple(7)
        assert monitor_n(y, 0.3, 0, state) is state
        one = monitor_n(y, 0.3, 1, state)
        assert np.abs(one.rho - monitor(y, 0.3, state).rho).max() <= 1e-15
        with pytest.raises(OutOfRange):
            monitor_n(y, 0.3, -1, state)
        # n = 0 returns the state unchanged, but only for inputs monitor accepts
        with pytest.raises(OutOfRange, match="monitoring strength must lie in"):
            monitor_n(y, 5.0, 0, state)
        with pytest.raises(DimensionMismatch, match="basis dim 3 != state d_a 2"):
            monitor_n(random_basis(3, 9), 0.3, 0, state)


class TestChannelInvariants:
    def test_outputs_are_valid_states(self):
        # complete-positivity proxy: every output passes state validation
        rng = np.random.default_rng(17)
        for i in range(200):
            d_a, d_b = [(2, 2), (3, 2), (2, 3), (4, 1)][i % 4]
            state = random_mixed(d_a, d_b, d_a * d_b, (400, i))
            x = random_basis(d_a, (401, i))
            eps = float(rng.uniform())
            for out in (dephase(x, state), monitor(x, eps, state)):
                assert np.abs(out.rho - out.rho.conj().T).max() <= 1e-10
                assert abs(np.trace(out.rho) - 1.0) <= 1e-10
                assert out.spectrum[0] >= -1e-10

    def test_absorption(self):
        # dephasing in Y after monitoring by Y gives the dephased original
        for i in range(10):
            state, _, y = random_triple(i)
            monitored = monitor(y, 0.37, state)
            assert np.abs(dephase(y, monitored).rho - dephase(y, state).rho).max() <= 1e-12

    def test_monitoring_by_same_observable_cannot_increase_its_irreality(self):
        # provable: dephasing in Y absorbs the monitoring, then concavity
        # gives irr(Y | monitored) <= (1 - eps) * irr(Y | original)
        rng = np.random.default_rng(23)
        for i in range(100):
            state, _, y = random_triple(i, 2, 2)
            eps = float(rng.uniform())
            before = irreality(y, state)
            after = irreality(y, monitor(y, eps, state))
            assert after <= before + 1e-9
            assert after <= (1.0 - eps) * before + 1e-9

    def test_monitoring_monotonicity_on_sampled_configurations(self):
        # monitoring Y may raise the irreality of another observable X (the
        # counterexample below); what bounds irr(X) after Y-monitoring is
        # eq16: irr(X | monitored) + H(Y|B) >= q(X, Y)
        rng = np.random.default_rng(23)
        for i in range(100):
            state, x, y = random_triple(i, 3, 2)
            eps = float(rng.uniform())
            after = irreality(x, monitor(y, eps, state))
            assert after + uncertainty(y, state) >= mu_bound(x, y) - 1e-9

    def test_cross_observable_counterexample(self):
        # start with X exactly real, then monitor a basis rotated by pi/8:
        # the irreality of X strictly increases, up to
        # h(3/4) - h((1 + 1/sqrt(2))/2) = 0.145840 nats at full strength
        from qir.states import ObservableBasis

        def h(p):
            return -(p * math.log(p) + (1 - p) * math.log(1 - p))

        state = BipartiteState(2, 1, np.diag([1.0, 0.0]))
        x = computational_basis(2)
        a, b = math.cos(math.pi / 8), math.sin(math.pi / 8)
        y = ObservableBasis(2, np.array([[a, -b], [b, a]]))
        assert irreality(x, state) == 0.0
        for eps in (0.25, 0.5, 1.0):
            assert irreality(x, monitor(y, eps, state)) > 1e-3
        expected_full = h(0.75) - h((1 + 1 / math.sqrt(2)) / 2)
        assert abs(irreality(x, monitor(y, 1.0, state)) - expected_full) <= 1e-12

    def test_own_uncertainty_invariant_under_monitoring(self):
        rng = np.random.default_rng(29)
        for i in range(100):
            state, _, y = random_triple(i)
            eps = float(rng.uniform())
            assert abs(uncertainty(y, monitor(y, eps, state)) - uncertainty(y, state)) <= 1e-9

    def test_pure_entangled_inputs(self):
        for i in range(20):
            state = haar_random_pure(2, 2, (500, i))
            x = random_basis(2, (501, i))
            out = dephase(x, state)
            assert out.spectrum[0] >= -1e-10
            assert abs(np.trace(out.rho) - 1.0) <= 1e-10
