import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qir import entropy_bundle, linalg
from qir.channels import _blocks, _monitor_grid, dephase, monitor
from qir.entropies import (
    EIG_CLIP,
    _configuration_entropies,
    _entropies,
    _marginals,
    cond_entropy,
    dephased_entropy,
    irreality,
    relative_entropy,
    shannon,
    uncertainty,
    vn_entropy,
)
from qir.errors import DimensionMismatch, InvariantViolation, NotDistribution
from qir.relations import EntropyBundle
from qir.states import (
    BipartiteState,
    computational_basis,
    fourier_basis,
    haar_random_pure,
    max_entangled,
    max_mixed,
    pure_from_schmidt,
    random_basis,
    random_mixed,
    werner,
)

from conftest import as_state, blocks, marginal_b, random_density

LN2 = math.log(2.0)
ACCEPTANCE_DIMS = tuple((d_a, d_b) for d_a in (2, 3, 4, 5) for d_b in (1, 2, 3))


def binary_entropy(p):
    return -(p * math.log(p) + (1 - p) * math.log(1 - p))


def werner_entropy(w):
    """Entropy from the closed-form spectrum ((1+3w)/4, (1-w)/4 x3)."""
    return shannon([(1 + 3 * w) / 4, (1 - w) / 4, (1 - w) / 4, (1 - w) / 4])


def werner_dephased_entropy(w):
    """Entropy from the dephased closed-form spectrum ((1+w)/4 x2, (1-w)/4 x2)."""
    return shannon([(1 + w) / 4, (1 + w) / 4, (1 - w) / 4, (1 - w) / 4])


def scalar_entropy(row):
    """The per-row route: clip, normalize by the sum, -sum p ln p over the positive entries."""
    arr = np.clip(np.asarray(row, dtype=float), 0.0, None)
    arr = arr / float(arr.sum())
    pos = arr[arr > 0.0]
    return float(-(pos * np.log(pos)).sum()) + 0.0


def bits(value):
    return np.float64(value).tobytes()


def charpoly_spectrum(m):
    """Eigenvalues via Faddeev-LeVerrier coefficients and companion roots.

    Independent of the Jacobi path: builds the characteristic polynomial
    from traces alone, then calls the generic polynomial root finder.
    """
    n = m.shape[0]
    coeffs = [1.0]
    mk = np.zeros_like(m)
    for k in range(1, n + 1):
        mk = m @ (mk + coeffs[-1] * np.eye(n))
        coeffs.append(-np.trace(mk).real / k)
    roots = np.roots(coeffs)
    return np.sort(roots.real)


class TestShannon:
    def test_deterministic_distribution(self):
        assert shannon([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_two(self):
        assert abs(shannon([0.5, 0.5]) - LN2) <= 1e-12

    def test_skewed_matches_scalar_formula(self):
        assert abs(shannon([0.9, 0.1]) - binary_entropy(0.9)) <= 1e-12
        assert abs(shannon([0.9, 0.1]) - 0.325083) <= 1e-6

    def test_clips_and_renormalizes_noise(self):
        value = shannon([0.5 + 2e-9, 0.5 - 1e-9, -1e-11])
        assert abs(value - LN2) <= 1e-8

    def test_rejects_bad_vectors(self):
        with pytest.raises(NotDistribution):
            shannon([0.7, 0.7])
        with pytest.raises(NotDistribution):
            shannon([1.5, -0.5])
        with pytest.raises(NotDistribution):
            shannon([])
        # a NaN fails every comparison: it must not pass the checks and count as a zero
        for weights, bad in (([math.nan], "nan"), ([0.5, math.nan], "nan"), ([0.5, math.inf], "inf")):
            with pytest.raises(NotDistribution, match=f"^non-finite weight {bad}$"):
                shannon(weights)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=8))
    def test_range_property(self, weights):
        p = np.array(weights) / sum(weights)
        h = shannon(p)
        assert -1e-12 <= h <= math.log(len(p)) + 1e-9


class TestVnEntropy:
    def test_pure_states_have_zero_entropy(self):
        for d in (2, 3, 4):
            assert abs(vn_entropy(max_entangled(d))) <= 1e-9

    def test_max_mixed(self):
        assert abs(vn_entropy(max_mixed(2, 2)) - 2 * LN2) <= 1e-10

    def test_werner_closed_form(self):
        assert abs(vn_entropy(werner(0.5)) - werner_entropy(0.5)) <= 1e-10
        assert abs(vn_entropy(werner(0.5)) - 1.073543) <= 1e-6

    def test_schmidt_state_memory_entropy(self):
        state = pure_from_schmidt([math.sqrt(0.9), math.sqrt(0.1)])
        h_b = vn_entropy(as_state(marginal_b(state)))
        assert abs(h_b - binary_entropy(0.9)) <= 1e-10
        assert abs(h_b - 0.325083) <= 1e-6

    def test_unitary_invariance(self, rng):
        m = random_density(rng, 4)
        u = random_basis(4, 31).vectors
        assert abs(vn_entropy(as_state(u @ m @ u.conj().T)) - vn_entropy(as_state(m))) <= 1e-9

    def test_matches_charpoly_oracle_small_dims(self, rng):
        for n in (2, 3, 4):
            for trial in range(5):
                m = random_density(rng, n)
                ours = vn_entropy(as_state(m))
                oracle = shannon(np.clip(charpoly_spectrum(m), 0.0, None))
                assert abs(ours - oracle) <= 1e-8


class TestCondEntropy:
    def test_max_entangled_is_minus_ln2(self):
        assert abs(cond_entropy(max_entangled(2)) + LN2) <= 1e-10

    def test_product_state_additivity(self):
        state = pure_from_schmidt([1.0, 0.0])
        assert abs(cond_entropy(state)) <= 1e-9
        # I/2 (x) rho_B: conditional entropy is S(I/2) = ln 2
        from qir.states import BipartiteState

        rho = np.kron(np.eye(2) / 2, np.diag([0.7, 0.3]))
        assert abs(cond_entropy(BipartiteState(2, 2, rho)) - LN2) <= 1e-9

    def test_werner_value(self):
        expected = werner_entropy(0.5) - LN2
        assert abs(cond_entropy(werner(0.5)) - expected) <= 1e-9
        assert abs(cond_entropy(werner(0.5)) - 0.380396) <= 1e-6

    def test_bounds(self):
        for i in range(20):
            state = random_mixed(3, 2, 6, (50, i))
            h = cond_entropy(state)
            assert -math.log(3) - 1e-9 <= h <= math.log(3) + 1e-9


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        m = as_state(random_density(rng, 4))
        assert abs(relative_entropy(m, m)) <= 1e-9

    def test_commuting_diagonal_case(self):
        pure = as_state(np.diag([1.0, 0.0]))
        assert abs(relative_entropy(pure, as_state(np.eye(2) / 2)) - LN2) <= 1e-12

    def test_support_violation_is_infinite(self):
        pure = as_state(np.diag([1.0, 0.0]))
        assert relative_entropy(as_state(np.eye(2) / 2), pure) == math.inf

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(25):
            r = as_state(random_density(rng, 3))
            s = as_state(random_density(rng, 3))
            assert relative_entropy(r, s) >= -1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            relative_entropy(as_state(np.eye(2) / 2), as_state(np.eye(3) / 3))

    def test_pinching_identity(self):
        # ln of a dephased state commutes with the dephasing, so the
        # relative entropy to it collapses to an entropy difference
        x = computational_basis(2)
        for i in range(25):
            state = random_mixed(2, 2, 4, (60, i))
            pinched = dephase(x, state)
            lhs = relative_entropy(state, pinched)
            rhs = vn_entropy(pinched) - vn_entropy(state)
            assert abs(lhs - rhs) <= 1e-8


class TestDephasedEntropy:
    """The block-spectrum S(dephased state) against the dense dephased matrix."""

    def test_matches_dense_path_on_acceptance_dims(self):
        for k, (d_a, d_b) in enumerate(ACCEPTANCE_DIMS):
            states = (
                haar_random_pure(d_a, d_b, (40, k)),
                random_mixed(d_a, d_b, d_a * d_b, (41, k)),
                random_mixed(d_a, d_b, 2, (42, k)),
            )
            for x in (random_basis(d_a, (43, k)), computational_basis(d_a)):
                for state in states:
                    dense = vn_entropy(dephase(x, state))
                    assert abs(dephased_entropy(x, state) - dense) <= 1e-12, (d_a, d_b)

    def test_zero_probability_outcomes(self, rng):
        # A in |0>, so every block but the first is p_i sigma_i = 0
        for d_a, d_b in ((2, 1), (3, 2), (4, 3)):
            a = np.zeros((d_a, d_a))
            a[0, 0] = 1.0
            sigma = random_density(rng, d_b)
            state = BipartiteState(d_a, d_b, np.kron(a, sigma))
            x = computational_basis(d_a)
            expected = scalar_entropy(linalg.herm_eig(sigma).eigenvalues)
            assert abs(dephased_entropy(x, state) - expected) <= 1e-12
            assert abs(dephased_entropy(x, state) - vn_entropy(dephase(x, state))) <= 1e-12
            assert abs(irreality(x, state)) <= 1e-12

    def test_block_checks_fire(self):
        x = computational_basis(2)

        def fake(rho, spectrum):
            return SimpleNamespace(d_a=2, d_b=2, rho=rho, spectrum=np.asarray(spectrum, dtype=float))

        # off-diagonal A coherences are dropped, so only the blocks are judged
        negative = np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvariantViolation):
            dephased_entropy(x, fake(negative, [0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(NotDistribution):
            dephased_entropy(x, fake(2 * np.eye(4) / 4, [0.25, 0.25, 0.25, 0.25]))
        with pytest.raises(DimensionMismatch):
            dephased_entropy(computational_basis(3), max_mixed(2, 2))


class TestBatchedEntropies:
    """The vectorized entropy pass and the batched configuration entropies, bit for bit."""

    @staticmethod
    def rows(rng, width, k=40):
        """Weights summing to 1 within 1e-9; for width > 1, by i % 3, one exact
        zero, one negative entry within EIG_CLIP, or all positive, with a -0.0
        in row 2 and a lone 1 in row 5."""
        rows = rng.dirichlet(np.ones(width), size=k)
        spot = rng.integers(width, size=k)
        if width > 1:
            for i in range(k):
                if i % 3 != 2 or i == 2:
                    rows[i, spot[i]] = 0.0
            rows[5] = np.eye(width)[spot[5]]
        rows /= rows.sum(axis=1, keepdims=True)
        rows *= 1.0 + rng.uniform(-1e-9, 1e-9, (k, 1))
        if width > 1:
            for i in range(1, k, 3):
                rows[i, spot[i]] = -rng.uniform(0.0, EIG_CLIP)
            rows[2, spot[2]] = -0.0
        return rows

    @pytest.mark.parametrize("width", range(1, 16))
    def test_rows_are_bitwise_the_per_row_route(self, rng, width):
        rows = self.rows(rng, width)
        positive = rows[(rows > 0.0).all(axis=1)]
        for stack in (rows, positive, rows[:1]):
            h = _entropies(stack)
            for i, row in enumerate(stack):
                assert bits(h[i]) == bits(scalar_entropy(row)), (width, i)
                assert bits(h[i]) == bits(shannon(np.clip(row, 0.0, None))), (width, i)

    def test_errors_name_the_row_and_the_defect(self):
        rows = np.full((4, 3), 1.0 / 3.0)
        rows[2] = [0.5, 0.5 + 2e-10, -2e-10]
        with pytest.raises(InvariantViolation, match=r"^row 2: eigenvalue -2\.000e-10 below -1e-10$"):
            _entropies(rows)
        rows[2] = [0.5, 0.5, -EIG_CLIP]
        _entropies(rows)
        rows[1] = [0.5, 0.5, 0.5]
        with pytest.raises(NotDistribution, match=r"^row 1: weights sum to 1\.5, not 1$"):
            _entropies(rows)
        with pytest.raises(NotDistribution, match=r"weights sum to 0\.9, not 1"):
            shannon([0.5, 0.4])

    @staticmethod
    def stacks(k, d_a, d_b):
        """Pure and mixed stacks of k matrices, the input and its monitored images: the
        ``_monitor_grid`` rows and spectra, and the states ``monitor`` returns."""
        grid = np.linspace(0.0, 1.0, k)
        y = random_basis(d_a, (44, d_a, d_b))
        for state in (haar_random_pure(d_a, d_b, (45, d_a, d_b)), random_mixed(d_a, d_b, d_a * d_b, (46, d_a, d_b))):
            if k == 1:
                yield state.rho[None], state.spectrum[None], [state]
            else:
                yield *_monitor_grid(y.vectors, grid, d_a, state.rho[None], state.spectrum[None]), [
                    monitor(y, eps, state) for eps in grid]

    @pytest.mark.parametrize("k", [1, 21])
    def test_blocks_and_marginals_are_bitwise_per_state(self, k):
        for d_a, d_b in ACCEPTANCE_DIMS:
            x = random_basis(d_a, (47, d_a, d_b))
            for rhos, _, states in self.stacks(k, d_a, d_b):
                stacked, marginals = _blocks(x.vectors, rhos, d_a, d_b), _marginals(rhos, d_a, d_b)
                assert stacked.shape == (k, d_a, d_b, d_b) and marginals.shape == (k, d_b, d_b)
                for i, state in enumerate(states):
                    assert stacked[i].tobytes() == blocks(x, state).tobytes(), (d_a, d_b, i)
                    assert marginals[i].tobytes() == marginal_b(state).tobytes(), (d_a, d_b, i)

    def test_blocks_with_one_frame_per_matrix_are_bitwise_the_shared_frame_call(self):
        for d_a, d_b in ACCEPTANCE_DIMS:
            xs = np.array([random_basis(d_a, (49, d_a, d_b, i)).vectors for i in range(20)])
            rhos = np.array([random_mixed(d_a, d_b, d_a * d_b, (50, d_a, d_b, i)).rho for i in range(20)])
            stacked = _blocks(xs, rhos, d_a, d_b)
            assert stacked.shape == (20, d_a, d_b, d_b)
            for i in range(20):
                assert stacked[i].tobytes() == _blocks(xs[i], rhos[i : i + 1], d_a, d_b)[0].tobytes(), (d_a, d_b, i)

    @pytest.mark.parametrize("k", [1, 21])
    def test_configuration_entropies_are_bitwise_the_per_state_route(self, k):
        def per_block(x, state):
            spectra = [linalg.herm_eig(b).eigenvalues for b in blocks(x, state)]
            return scalar_entropy(np.concatenate(spectra))

        for d_a, d_b in ACCEPTANCE_DIMS:
            x, y = random_basis(d_a, (48, d_a, d_b)), computational_basis(d_a)
            for rhos, spectra, states in self.stacks(k, d_a, d_b):
                h = _configuration_entropies([x.vectors, y.vectors], d_a, rhos, spectra)
                assert h.shape == (k, 4)
                for i, state in enumerate(states):
                    h_b = scalar_entropy(linalg.herm_eig(marginal_b(state)).eigenvalues)
                    expected = (h_b, scalar_entropy(state.spectrum), per_block(x, state), per_block(y, state))
                    assert [bits(v) for v in h[i]] == [bits(v) for v in expected], (d_a, d_b, i)
                    assert bits(h[i, 2]) == bits(dephased_entropy(x, state))
                    assert bits(h[i, 1]) == bits(vn_entropy(state))


class TestUncertainty:
    def test_zero_on_max_entangled(self):
        for d in (2, 3):
            assert abs(uncertainty(computational_basis(d), max_entangled(d))) <= 1e-9

    def test_ln_d_on_max_mixed(self):
        for d in (2, 3):
            assert abs(uncertainty(computational_basis(d), max_mixed(d, d)) - math.log(d)) <= 1e-9

    def test_werner_closed_form(self):
        expected = werner_dephased_entropy(0.5) - LN2
        got = uncertainty(computational_basis(2), werner(0.5))
        assert abs(got - expected) <= 1e-9
        assert abs(got - 0.562335) <= 1e-6

    def test_memoryless_reduces_to_shannon(self):
        state = haar_random_pure(3, 1, 17)
        x = computational_basis(3)
        probs = np.diag(state.rho).real
        assert abs(uncertainty(x, state) - shannon(probs)) <= 1e-9

    def test_range_property(self):
        for i in range(20):
            state = random_mixed(3, 2, 6, (70, i))
            x = random_basis(3, (71, i))
            assert -1e-9 <= uncertainty(x, state) <= math.log(3) + 1e-9

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            uncertainty(computational_basis(3), max_mixed(2, 2))


class TestIrreality:
    def test_zero_on_max_mixed_any_basis(self):
        for i in range(5):
            x = random_basis(2, (80, i))
            assert abs(irreality(x, max_mixed(2, 2))) <= 1e-9

    def test_ln_d_on_max_entangled(self):
        for d in (2, 3):
            assert abs(irreality(computational_basis(d), max_entangled(d)) - math.log(d)) <= 1e-9

    def test_werner_closed_form(self):
        expected = werner_dephased_entropy(0.5) - werner_entropy(0.5)
        got = irreality(computational_basis(2), werner(0.5))
        assert abs(got - expected) <= 1e-9
        assert abs(got - 0.181939) <= 1e-6

    def test_zero_iff_dephasing_fixed_point(self):
        x = computational_basis(2)
        diag_state = werner(0.0)  # maximally mixed, dephasing fixed point
        assert abs(irreality(x, diag_state)) <= 1e-12
        assert irreality(x, werner(0.9)) > 0.1

    def test_invariant_under_column_phases_and_permutation(self):
        state = werner(0.7)
        x = random_basis(2, 123)
        base = irreality(x, state)
        from qir.states import ObservableBasis

        phases = np.diag(np.exp(1j * np.array([0.3, -1.2])))
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        relabeled = ObservableBasis(2, x.vectors @ perm @ phases)
        assert abs(irreality(relabeled, state) - base) <= 1e-10


class TestProfile:
    def test_max_entangled_profile(self):
        p = entropy_bundle(computational_basis(2), max_entangled(2))
        expected = (0.0, LN2, -LN2, 0.0, LN2)
        got = (p.h_ab, p.h_b, p.h_a_given_b, p.h_x_given_b, p.irreality_x)
        assert np.abs(np.array(got) - expected).max() <= 1e-9

    def test_max_mixed_profile(self):
        p = entropy_bundle(fourier_basis(2), max_mixed(2, 2))
        expected = (2 * LN2, LN2, LN2, LN2, 0.0)
        got = (p.h_ab, p.h_b, p.h_a_given_b, p.h_x_given_b, p.irreality_x)
        assert np.abs(np.array(got) - expected).max() <= 1e-9

    def test_werner_profile(self):
        p = entropy_bundle(computational_basis(2), werner(0.5))
        expected = (1.073543, 0.693147, 0.380396, 0.562335, 0.181939)
        got = (p.h_ab, p.h_b, p.h_a_given_b, p.h_x_given_b, p.irreality_x)
        assert np.abs(np.array(got) - expected).max() <= 1e-6

    def test_linear_constraint_residual(self):
        for i in range(10):
            state = random_mixed(3, 2, 6, (90, i))
            x = random_basis(3, (91, i))
            p = entropy_bundle(x, state)
            assert abs(p.irreality_x - (p.h_x_given_b - p.h_a_given_b)) <= 1e-9

    def test_invariant_validation(self):
        zeros = dict(h_ab=0.0, h_b=0.0, h_x_given_b=0.0, irreality_x=0.0)
        EntropyBundle(**zeros)
        EntropyBundle(**dict(zeros, h_x_given_b=-1e-10, irreality_x=-1e-10))
        EntropyBundle(**zeros, h_y_given_b=-1e-10, irreality_y=-1e-10, q=0.0)
        for field in ("h_x_given_b", "irreality_x"):
            with pytest.raises(InvariantViolation):
                EntropyBundle(**dict(zeros, **{field: -2e-9}))
        for field in ("h_y_given_b", "irreality_y"):
            y_side = dict(h_y_given_b=0.0, irreality_y=0.0, q=0.0)
            with pytest.raises(InvariantViolation):
                EntropyBundle(**zeros, **dict(y_side, **{field: -2e-9}))
