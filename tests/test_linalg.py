import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qir import linalg
from qir.entropies import _marginals
from qir.errors import DimensionMismatch, InvariantViolation, NoConvergence, NotHermitian

from conftest import random_hermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def naive_b_marginal(m, da, db):
    out = np.zeros((db, db), dtype=complex)
    for j in range(db):
        for k in range(db):
            for i in range(da):
                out[j, k] += m[i * db + j, i * db + k]
    return out


class TestAsOperator:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            linalg.as_operator(np.ones((2, 3)))

    def test_rejects_nan(self):
        bad = np.full((2, 2), np.nan)
        with pytest.raises(InvariantViolation):
            linalg.as_operator(bad)


class TestPartialTrace:
    """``entropies._marginals``, the B marginal of each matrix of a stack."""

    def test_product_state(self, rng):
        from conftest import random_density

        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        joint = np.kron(rho_a, rho_b)
        assert np.abs(_marginals(joint[None], 2, 3)[0] - rho_b).max() <= 1e-12

    def test_bell_reduction_is_maximally_mixed(self):
        psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.abs(_marginals(rho[None], 2, 2)[0] - np.eye(2) / 2).max() <= 1e-12

    def test_matches_index_summation(self, rng):
        ms = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
        for m, reduced in zip(ms, _marginals(ms, 2, 3)):
            assert np.abs(reduced - naive_b_marginal(m, 2, 3)).max() <= 1e-12

    def test_preserves_trace(self, rng):
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        assert abs(np.trace(_marginals(m[None], 3, 4)[0]) - np.trace(m)) <= 1e-12


class TestHermEig:
    def test_diagonal_input_sorted(self):
        eig = linalg.herm_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        eig = linalg.herm_eig(PAULI_X)
        assert np.allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)
        minus, plus = eig.eigenvectors[:, 0], eig.eigenvectors[:, 1]
        # up to phase
        assert abs(abs(minus @ np.array([1, -1]) / np.sqrt(2)) - 1) <= 1e-10
        assert abs(abs(plus @ np.array([1, 1]) / np.sqrt(2)) - 1) <= 1e-10

    def test_reconstruction_and_trace(self, rng):
        m = random_hermitian(rng, 8)
        eig = linalg.herm_eig(m)
        recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.abs(recon - m).max() <= 1e-10
        assert abs(eig.eigenvalues.sum() - np.trace(m).real) <= 1e-10

    def test_eigenvector_orthonormality(self, rng):
        m = random_hermitian(rng, 9)
        v = linalg.herm_eig(m).eigenvectors
        assert np.abs(v.conj().T @ v - np.eye(9)).max() <= 1e-10

    def test_invariant_under_unitary_conjugation(self, rng):
        from qir.states import random_basis

        m = random_hermitian(rng, 6)
        u = random_basis(6, 99).vectors
        w1 = linalg.herm_eig(m).eigenvalues
        w2 = linalg.herm_eig(u @ m @ u.conj().T).eigenvalues
        assert np.abs(w1 - w2).max() <= 1e-9

    def test_two_by_two_closed_form(self, rng):
        for _ in range(50):
            m = random_hermitian(rng, 2)
            a, d = m[0, 0].real, m[1, 1].real
            half_gap = np.sqrt(((a - d) / 2) ** 2 + abs(m[0, 1]) ** 2)
            expected = np.array([(a + d) / 2 - half_gap, (a + d) / 2 + half_gap])
            assert np.abs(linalg.herm_eig(m).eigenvalues - expected).max() <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(-10, 10),
        d=st.floats(-10, 10),
        re=st.floats(-10, 10),
        im=st.floats(-10, 10),
    )
    def test_two_by_two_closed_form_hypothesis(self, a, d, re, im):
        m = np.array([[a, re + 1j * im], [re - 1j * im, d]])
        half_gap = np.sqrt(((a - d) / 2) ** 2 + re * re + im * im)
        expected = np.array([(a + d) / 2 - half_gap, (a + d) / 2 + half_gap])
        got = linalg.herm_eig(m).eigenvalues
        assert np.abs(got - expected).max() <= 1e-12 * max(1.0, abs(a), abs(d))

    def test_degenerate_spectrum(self):
        eig = linalg.herm_eig(np.eye(4))
        assert np.allclose(eig.eigenvalues, 1.0)
        assert np.abs(eig.eigenvectors.conj().T @ eig.eigenvectors - np.eye(4)).max() <= 1e-12

    def test_one_by_one_and_zero_matrix(self):
        assert linalg.herm_eig(np.array([[2.5]])).eigenvalues[0] == 2.5
        assert np.all(linalg.herm_eig(np.zeros((3, 3))).eigenvalues == 0)

    def test_deterministic(self, rng):
        m = random_hermitian(rng, 7)
        e1, e2 = linalg.herm_eig(m), linalg.herm_eig(m)
        assert np.array_equal(e1.eigenvalues, e2.eigenvalues)
        assert np.array_equal(e1.eigenvectors, e2.eigenvectors)

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian, match=r"2x2 matrix: Hermiticity defect 1\.000e\+00"):
            linalg.herm_eig(m)

    def test_symmetrizes_small_defect(self, rng):
        m = random_hermitian(rng, 4)
        perturbed = m + 1e-12 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        eig = linalg.herm_eig(perturbed)
        assert np.abs(eig.eigenvalues - linalg.herm_eig(m).eigenvalues).max() <= 1e-10

    def test_no_convergence_on_tiny_budget(self, rng, monkeypatch):
        m = random_hermitian(rng, 4)
        budgets = []

        def stalls_after_one_rotation(a, v, max_rotations):
            budgets.append(max_rotations)
            return 1, False

        monkeypatch.setattr(linalg.backend, "jacobi_eigh", stalls_after_one_rotation)
        with pytest.raises(NoConvergence, match=r"4x4 matrix: .* after 1 rotations"):
            linalg.herm_eig(m)
        assert budgets == [100 * 4 * 4]


class TestHermEigStack:
    """``linalg._stack_eigenvalues``, the stacked route."""

    def test_values_per_slice(self, rng):
        ms = np.array([random_hermitian(rng, 5) for _ in range(4)])
        values = linalg._stack_eigenvalues(ms)
        assert values.shape == (4, 5)
        assert np.all(np.diff(values, axis=1) >= 0)
        assert np.abs(values - np.linalg.eigvalsh(ms)).max() <= 1e-12

    def test_symmetrizes_small_defect(self, rng):
        ms = np.array([random_hermitian(rng, 3) for _ in range(3)])
        perturbed = ms + 1e-12 * rng.standard_normal(ms.shape)
        values = [linalg._stack_eigenvalues(a) for a in (perturbed, ms)]
        assert np.abs(values[0] - values[1]).max() <= 1e-10

    def test_leaves_its_argument_as_it_is(self, rng):
        # the kernel overwrites what it is handed: the stack's Hermitian part, a new array
        for k in (1, 3):
            ms = np.array([random_hermitian(rng, 4) for _ in range(k)])
            ms += 1e-12 * rng.standard_normal(ms.shape)
            ms[0, 0, 1] = complex(-0.0, 0.0)
            before = ms.tobytes()
            linalg._stack_eigenvalues(ms)
            assert ms.tobytes() == before, k

    def test_errors_name_the_slice(self, rng, monkeypatch):
        # slice by slice (k = SMALL_STACK) and stacked (k = SMALL_STACK + 1), the last slice stalls
        single, stacked = linalg.backend.jacobi_eigh, linalg.backend.jacobi_eigh_stack
        for k in (linalg.SMALL_STACK, linalg.SMALL_STACK + 1):
            ms = np.array([random_hermitian(rng, 3) for _ in range(k)])
            budgets = []

            def single_stalls_on_the_last_slice(a, v, max_rotations, k=k, budgets=budgets):
                budgets.append(max_rotations)
                rotations, converged = single(a, v, max_rotations)
                return rotations, converged and len(budgets) < k

            def stack_stalls_on_the_last_slice(a, v, max_rotations, budgets=budgets):
                budgets.append(max_rotations)
                rotations, converged = stacked(a, v, max_rotations)
                converged[-1] = False
                return rotations, converged

            monkeypatch.setattr(linalg.backend, "jacobi_eigh", single_stalls_on_the_last_slice)
            monkeypatch.setattr(linalg.backend, "jacobi_eigh_stack", stack_stalls_on_the_last_slice)
            with pytest.raises(NoConvergence, match=rf"slice {k - 1} \(3x3\): .* after \d+ rotations"):
                linalg._stack_eigenvalues(ms)
            assert budgets == [100 * 3 * 3] * (k if k <= linalg.SMALL_STACK else 1), k

    def test_kernel_entry_follows_the_stack_size(self, rng, monkeypatch):
        # up to SMALL_STACK slices run the loop kernel slice by slice, a larger
        # stack the stacked one; both give a slice the same bytes and rotations
        calls = []
        single, stacked = linalg.backend.jacobi_eigh, linalg.backend.jacobi_eigh_stack

        def counting_single(a, v, max_rotations):
            rotations, converged = single(a, v, max_rotations)
            calls.append(("jacobi_eigh", a.shape, [rotations]))
            return rotations, converged

        def counting_stacked(a, v, max_rotations):
            rotations, converged = stacked(a, v, max_rotations)
            calls.append(("jacobi_eigh_stack", a.shape, list(rotations)))
            return rotations, converged

        monkeypatch.setattr(linalg.backend, "jacobi_eigh", counting_single)
        monkeypatch.setattr(linalg.backend, "jacobi_eigh_stack", counting_stacked)
        k = linalg.SMALL_STACK
        ms = np.array([random_hermitian(rng, 3) for _ in range(k + 1)])
        small = linalg._stack_eigenvalues(ms[:k])
        assert [(entry, shape) for entry, shape, _ in calls] == [("jacobi_eigh", (3, 3))] * k
        per_slice = [r for _, _, (r,) in calls]
        calls.clear()
        large = linalg._stack_eigenvalues(ms)
        assert [(entry, shape) for entry, shape, _ in calls] == [("jacobi_eigh_stack", (k + 1, 3, 3))]
        assert calls[0][2][:k] == per_slice
        assert small.tobytes() == large[:k].tobytes()
