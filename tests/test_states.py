import math
import re

import numpy as np
import pytest

from qir import linalg
from qir.errors import (
    BadDimension,
    ConfigError,
    DimensionMismatch,
    InvariantViolation,
    NotNormalized,
    OutOfRange,
)
from qir.states import (
    BipartiteState,
    ObservableBasis,
    _checked_bases,
    _checked_stack,
    basis_from_token,
    computational_basis,
    fourier_basis,
    haar_random_pure,
    max_entangled,
    max_mixed,
    pure_from_schmidt,
    random_basis,
    random_mixed,
    state_from_token,
    werner,
)

from conftest import marginal_a, marginal_b, purity


def assert_valid_state(state):
    rho = state.rho
    assert np.abs(rho - rho.conj().T).max() <= 1e-10
    assert abs(np.trace(rho) - 1.0) <= 1e-10
    assert state.spectrum[0] >= -1e-10


class TestBipartiteState:
    def test_validation_catches_bad_trace(self):
        with pytest.raises(InvariantViolation, match=r"\(2, 1\) state trace \(2\+0j\) != 1"):
            BipartiteState(2, 1, np.eye(2))

    def test_validation_catches_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(InvariantViolation, match=r"\(2, 1\) state not Hermitian \(defect 5\.000e-01\)"):
            BipartiteState(2, 1, m)

    def test_validation_catches_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(InvariantViolation, match=r"\(2, 1\) state not positive .* -5\.000e-01"):
            BipartiteState(2, 1, m)

    def test_validation_catches_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            BipartiteState(2, 2, np.eye(2) / 2)

    def test_rejects_trivial_a_dimension(self):
        with pytest.raises(BadDimension):
            BipartiteState(1, 2, np.eye(2) / 2)

    def test_rho_is_immutable(self):
        state = max_mixed(2, 2)
        with pytest.raises(ValueError):
            state.rho[0, 0] = 9.0
        with pytest.raises(ValueError):
            state.spectrum[0] = 9.0

    def test_validation_messages_and_order(self):
        fine = np.eye(2) / 2
        skew = np.array([[0.5, 0.5], [0.0, 0.5]])
        cases = [
            (np.full((2, 3), 1 / 3), DimensionMismatch, r"^expected a square matrix, got shape \(2, 3\)$"),
            (np.eye(3) / 3, DimensionMismatch, r"^matrix dim 3 != d_a\*d_b = 2$"),
            (np.diag([np.nan, 0.5]), InvariantViolation, r"^matrix contains non-finite entries$"),
            (np.eye(2), InvariantViolation, r"^\(2, 1\) state trace \(2\+0j\) != 1$"),
            (skew, InvariantViolation, r"^\(2, 1\) state not Hermitian \(defect 5\.000e-01\)$"),
            (np.diag([1.5, -0.5]), InvariantViolation,
             r"^\(2, 1\) state not positive semidefinite \(min eigenvalue -5\.000e-01\)$"),
            # a matrix with several defects fails the first check in the order
            # dims, shape, finiteness, dim, Hermiticity, trace, positivity
            (np.diag([np.nan, 0.5, 0.5]), InvariantViolation, r"^matrix contains non-finite entries$"),
            (np.triu(np.ones((3, 3))) / 3, DimensionMismatch, r"^matrix dim 3 != d_a\*d_b = 2$"),
            (2 * skew, InvariantViolation, r"not Hermitian"),
            (np.diag([3.0, -0.5]), InvariantViolation, r"trace"),
        ]
        for bad, error, message in cases:
            with pytest.raises(error, match=message):
                BipartiteState(2, 1, bad)
        with pytest.raises(BadDimension, match=r"^d_a must be >= 2, got 1$"):
            BipartiteState(1, 2, np.full((2, 3), 1 / 3))
        with pytest.raises(BadDimension, match=r"^d_b must be >= 1, got 0$"):
            BipartiteState(2, 0, fine)

    def test_a_stack_is_checked_as_its_matrices_one_at_a_time(self):
        # the constructor is the one-matrix case of _checked_stack: a bad matrix
        # among good ones fails with the error it fails with alone
        fine = [werner(0.3).rho, max_mixed(2, 2).rho, haar_random_pure(2, 2, 1).rho]
        bad = [
            np.eye(4) / 2,
            np.diag([1.5, -0.5, 0.0, 0.0]),
            np.triu(np.ones((4, 4))) / 4,
            np.diag([np.nan, 0.5, 0.5, 0.0]),
        ]
        for m in bad:
            with pytest.raises(InvariantViolation) as alone:
                BipartiteState(2, 2, m)
            with pytest.raises(InvariantViolation, match=f"^{re.escape(str(alone.value))}$"):
                _checked_stack(2, 2, [fine[0], m, fine[1]])
        with pytest.raises(DimensionMismatch, match=r"^matrix dim 3 != d_a\*d_b = 4$"):
            _checked_stack(2, 2, np.array([np.eye(3) / 3] * 2))
        with pytest.raises(DimensionMismatch, match=r"^expected a square matrix, got shape \(4, 3\)$"):
            _checked_stack(2, 2, np.ones((2, 4, 3)))
        rhos, spectra = _checked_stack(2, 2, fine)
        for m, rho, spectrum in zip(fine, rhos, spectra):
            state = BipartiteState(2, 2, m)
            assert rho.tobytes() == state.rho.tobytes() and spectrum.tobytes() == state.spectrum.tobytes()

    def test_spectrum_matches_solver(self):
        state = werner(0.3)
        assert np.abs(state.spectrum - linalg.herm_eig(state.rho).eigenvalues).max() <= 1e-14


class TestNamedStates:
    def test_bell_is_pure_with_mixed_reductions(self):
        for d in (2, 3):
            state = max_entangled(d)
            assert_valid_state(state)
            assert abs(purity(state) - 1.0) <= 1e-10
            assert np.abs(marginal_a(state) - np.eye(d) / d).max() <= 1e-12
            assert np.abs(marginal_b(state) - np.eye(d) / d).max() <= 1e-12

    def test_bell_rejects_small_dim(self):
        with pytest.raises(BadDimension):
            max_entangled(1)

    def test_max_mixed_matrix(self):
        assert np.array_equal(max_mixed(2, 2).rho, np.eye(4) / 4)

    def test_schmidt_product_state(self):
        state = pure_from_schmidt([1.0, 0.0])
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(state.rho - expected).max() <= 1e-12

    def test_schmidt_uniform_equals_bell(self):
        for d in (2, 3, 4):
            state = pure_from_schmidt(np.full(d, 1.0 / math.sqrt(d)))
            assert np.abs(state.rho - max_entangled(d).rho).max() <= 1e-12

    def test_schmidt_rejects_bad_inputs(self):
        with pytest.raises(NotNormalized):
            pure_from_schmidt([0.9, 0.1])
        with pytest.raises(NotNormalized):
            pure_from_schmidt([1.1, -0.1])

    def test_werner_endpoints_and_spectrum(self):
        assert np.abs(werner(0.0).rho - max_mixed(2, 2).rho).max() <= 1e-12
        assert np.abs(werner(1.0).rho - max_entangled(2).rho).max() <= 1e-12
        assert np.abs(werner(0.5).spectrum - [0.125, 0.125, 0.125, 0.625]).max() <= 1e-12

    def test_werner_range(self):
        with pytest.raises(OutOfRange):
            werner(1.5)
        with pytest.raises(OutOfRange):
            werner(-0.01)


class TestRandomStates:
    def test_haar_pure_is_pure_and_deterministic(self):
        a = haar_random_pure(2, 3, 42)
        b = haar_random_pure(2, 3, 42)
        assert_valid_state(a)
        assert abs(purity(a) - 1.0) <= 1e-10
        assert np.array_equal(a.rho, b.rho)
        assert not np.array_equal(a.rho, haar_random_pure(2, 3, 43).rho)

    def test_haar_pure_mean_reduced_purity(self):
        # known average of Tr(rho_B^2) over the unitarily invariant measure
        total = 0.0
        samples = 10_000
        for i in range(samples):
            state = haar_random_pure(2, 2, (1234, i))
            rb = marginal_b(state)
            total += float(np.trace(rb @ rb).real)
        mean = total / samples
        expected = (2 + 2) / (2 * 2 + 1)
        assert abs(mean - expected) <= 0.02 * expected

    def test_random_mixed_rank_one_is_pure(self):
        state = random_mixed(2, 2, 1, 7)
        assert abs(purity(state) - 1.0) <= 1e-10

    def test_random_mixed_full_rank(self):
        state = random_mixed(2, 2, 4, 7)
        assert_valid_state(state)
        assert state.spectrum[0] > 0

    def test_random_mixed_rejects_bad_rank(self):
        with pytest.raises(BadDimension):
            random_mixed(2, 2, 0, 7)


class TestBases:
    def test_computational_columns(self):
        assert np.array_equal(computational_basis(3).vectors, np.eye(3))

    def test_fourier_d2_is_hadamard(self):
        h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.abs(fourier_basis(2).vectors - h).max() <= 1e-12

    def test_fourier_mutually_unbiased(self):
        for d in (2, 3, 4, 5):
            overlaps = np.abs(computational_basis(d).vectors.conj().T @ fourier_basis(d).vectors)
            assert np.abs(overlaps - 1.0 / math.sqrt(d)).max() <= 1e-12

    def test_fourier_unitarity(self):
        v = fourier_basis(4).vectors
        assert np.abs(v.conj().T @ v - np.eye(4)).max() <= 1e-12

    def test_completeness_every_constructor(self):
        for basis in (computational_basis(3), fourier_basis(3), random_basis(3, 5)):
            total = np.zeros((3, 3), dtype=complex)
            for i in range(3):
                col = basis.vectors[:, i]
                total += np.outer(col, col.conj())
            assert np.abs(total - np.eye(3)).max() <= 1e-12

    def test_random_basis_deterministic(self):
        assert np.array_equal(random_basis(4, 9).vectors, random_basis(4, 9).vectors)

    def test_random_basis_overlap_marginal_is_uniform(self):
        # |<0|u_1>|^2 of a Haar column is uniform on [0,1]; KS statistic < 0.02
        samples = 10_000
        values = np.empty(samples)
        for i in range(samples):
            values[i] = abs(random_basis(2, (777, i)).vectors[0, 0]) ** 2
        values.sort()
        ecdf_hi = np.arange(1, samples + 1) / samples
        ecdf_lo = np.arange(samples) / samples
        ks = max(np.abs(ecdf_hi - values).max(), np.abs(values - ecdf_lo).max())
        assert ks < 0.02

    def test_basis_validation(self):
        with pytest.raises(InvariantViolation):
            ObservableBasis(2, np.array([[1.0, 1.0], [0.0, 0.0]]))
        skew = np.array([[1.0, 1.0], [0.0, 1.0]])
        fine = [computational_basis(2).vectors, fourier_basis(2).vectors]
        with pytest.raises(InvariantViolation, match=r"^basis columns not orthonormal \(defect 1\.000e\+00\)$"):
            _checked_bases(2, [fine[0], skew, fine[1]])
        with pytest.raises(DimensionMismatch, match=r"^basis matrix dim 3 != d = 2$"):
            _checked_bases(2, np.array([np.eye(3)]))
        assert _checked_bases(2, fine).tobytes() == np.array(fine, dtype=complex).tobytes()
        with pytest.raises(BadDimension):
            random_basis(1, 0)


class TestTokens:
    def test_state_tokens(self):
        assert np.array_equal(state_from_token("bell:2").rho, max_entangled(2).rho)
        assert np.array_equal(state_from_token("mixed:2,3").rho, max_mixed(2, 3).rho)
        assert np.array_equal(state_from_token("werner:0.5").rho, werner(0.5).rho)
        assert np.array_equal(
            state_from_token("haar:2,2,5").rho, haar_random_pure(2, 2, 5).rho
        )

    def test_basis_tokens(self):
        assert np.array_equal(basis_from_token("comp:3").vectors, computational_basis(3).vectors)
        assert np.array_equal(basis_from_token("fourier:3").vectors, fourier_basis(3).vectors)
        assert np.array_equal(basis_from_token("haar:3,4").vectors, random_basis(3, 4).vectors)

    def test_bad_tokens(self):
        for token in ("bell", "bell:x", "unknown:2", "werner:2.0"):
            with pytest.raises(ConfigError):
                state_from_token(token)
        for token in ("comp", "comp:one", "spin:2"):
            with pytest.raises(ConfigError):
                basis_from_token(token)
