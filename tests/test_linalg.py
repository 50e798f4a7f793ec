import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qir import _jacobi_py, backend, linalg
from qir.entropies import _marginals
from qir.errors import DimensionMismatch, InvariantViolation, NoConvergence, NotHermitian

from conftest import needs_compiled, random_density, random_hermitian

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

        def stalls_after_one_rotation(b, max_rotations):
            budgets.append(max_rotations)
            return np.array([1]), np.array([False])

        monkeypatch.setattr(linalg.backend, "jacobi_eigh_stack", stalls_after_one_rotation)
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
        # a stack small enough to run slice by slice on the Python kernel and
        # one that runs stacked: one call each, in which the last slice stalls
        stacked = linalg.backend.jacobi_eigh_stack
        for k in (_jacobi_py.SMALL_STACK, _jacobi_py.SMALL_STACK + 1):
            ms = np.array([random_hermitian(rng, 3) for _ in range(k)])
            budgets = []

            def stack_stalls_on_the_last_slice(b, max_rotations, budgets=budgets):
                budgets.append(max_rotations)
                rotations, converged = stacked(b, max_rotations)
                converged[-1] = False
                return rotations, converged

            monkeypatch.setattr(linalg.backend, "jacobi_eigh_stack", stack_stalls_on_the_last_slice)
            with pytest.raises(NoConvergence, match=rf"slice {k - 1} \(3x3\): .* after \d+ rotations"):
                linalg._stack_eigenvalues(ms)
            assert budgets == [100 * 3 * 3], k


class TestKernelCounts:
    """``linalg.kernel_counts``: the kernel work ``_jacobi`` hands the backend, by n."""

    def test_two_identical_calls_count_twice_one(self, rng):
        ms = np.array([random_hermitian(rng, 4) for _ in range(5)])
        m = random_hermitian(rng, 3)
        start = linalg.kernel_counts()
        linalg._stack_eigenvalues(ms)
        linalg.herm_eig(m)
        once = linalg.kernel_counts(start)
        assert set(once) == {3, 4}
        assert once[4][:2] == (1, 5) and once[3][:2] == (1, 1)
        assert once[4][2] > 0 and once[3][2] > 0
        linalg._stack_eigenvalues(ms)
        linalg.herm_eig(m)
        assert linalg.kernel_counts(start) == {n: tuple(2 * x for x in c) for n, c in once.items()}

    def test_rotations_are_the_kernels_own(self, rng, monkeypatch):
        ms = np.array([random_hermitian(rng, 5) for _ in range(4)])
        returned = []
        stacked = linalg.backend.jacobi_eigh_stack

        def recording(b, max_rotations):
            rotations, converged = stacked(b, max_rotations)
            returned.append(int(rotations.sum()))
            return rotations, converged

        monkeypatch.setattr(linalg.backend, "jacobi_eigh_stack", recording)
        start = linalg.kernel_counts()
        linalg._stack_eigenvalues(ms)
        assert linalg.kernel_counts(start) == {5: (1, 4, returned[0])}

    def test_a_stack_that_does_not_converge_is_counted(self, rng, monkeypatch):
        # its rotations were spent: the call, its slices and rotations count before the raise
        ms = np.array([random_hermitian(rng, 3) for _ in range(2)])

        def stalls(b, max_rotations):
            return np.array([7, 9]), np.array([True, False])

        monkeypatch.setattr(linalg.backend, "jacobi_eigh_stack", stalls)
        start = linalg.kernel_counts()
        with pytest.raises(NoConvergence, match=r"slice 1 \(3x3\): .* after 9 rotations"):
            linalg._stack_eigenvalues(ms)
        assert linalg.kernel_counts(start) == {3: (1, 2, 16)}

    def test_an_empty_stack_is_one_call_of_no_slices(self):
        for n in (0, 1, 2, 7):
            start = linalg.kernel_counts()
            assert linalg._stack_eigenvalues(np.zeros((0, n, n), dtype=complex)).shape == (0, n)
            assert linalg.kernel_counts(start) == {n: (1, 0, 0)}

    def test_a_snapshot_is_unchanged_by_later_work(self, rng):
        start = linalg.kernel_counts()
        frozen = dict(start)
        linalg.herm_eig(random_hermitian(rng, 2))
        assert start == frozen
        assert linalg.kernel_counts(linalg.kernel_counts()) == {}

    @needs_compiled
    def test_both_kernels_count_the_same_on_full_rank_input(self, rng, restore_backend):
        # a density with a null space may take 1-2 rotations more on one twin
        # (tests/test_backends.py, test_kernel_rotation_counts_match), so full rank only
        stacks = [np.array([random_density(rng, n) for _ in range(k)]) for n in (2, 4, 6, 9) for k in (1, 3, 5)]
        counts = {}
        for name in ("python", "compiled"):
            backend.set_backend(name)
            start = linalg.kernel_counts()
            for ms in stacks:
                linalg._stack_eigenvalues(ms)
            counts[name] = linalg.kernel_counts(start)
        assert counts["python"] == counts["compiled"]
        assert counts["python"][4][:2] == (3, 9)
