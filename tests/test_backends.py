"""The compiled and pure-Python Jacobi kernels must be interchangeable."""

import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qir
from qir import backend, linalg
from qir.errors import ConfigError
from qir.states import werner

from conftest import random_density, random_hermitian

# the compiled twin, built from the shipped C source by the conftest fixture if need be
needs_compiled = pytest.mark.usefixtures("compiled_kernel")


@pytest.fixture
def restore_backend():
    name = backend.backend_name()
    yield
    backend.set_backend(name)


def test_python_backend_always_available():
    assert "python" in backend.available_backends()


def test_set_backend_rejects_unknown():
    with pytest.raises(ConfigError):
        backend.set_backend("fortran")


@needs_compiled
def test_kernels_agree_on_random_matrices(rng, restore_backend):
    for n in (2, 3, 5, 8, 13, 16):
        m = random_hermitian(rng, n)
        backend.set_backend("compiled")
        fast = linalg.herm_eig(m)
        backend.set_backend("python")
        slow = linalg.herm_eig(m)
        assert np.abs(fast.eigenvalues - slow.eigenvalues).max() <= 1e-12
        for eig in (fast, slow):
            recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.conj().T
            assert np.abs(recon - m).max() <= 1e-10


def test_python_backend_full_stack(rng, restore_backend):
    """A whole pipeline spot-check on the fallback kernel."""
    import qir

    backend.set_backend("python")
    bell = qir.max_entangled(2)
    x, y = qir.computational_basis(2), qir.fourier_basis(2)
    report = qir.check_combined_ur(x, y, bell)
    assert abs(report.slack) <= 1e-9
    assert abs(qir.irreality(x, bell) - np.log(2)) <= 1e-9


STACK_SIZES = (1, 2, 3, 4, 5, 6, 9, 15)


def real_density(rng, n):
    z = rng.standard_normal((n, n))
    m = z @ z.T
    return (m / np.trace(m)).astype(complex)


def signed_zeros(n):
    """Real symmetric, with -0.0 in every entry that no coupling fills."""
    m = np.full((n, n), complex(-0.0, -0.0))
    m[np.arange(n), np.arange(n)] = np.where(np.arange(n) % 2, -1.0, 1.0)
    for i in range(0, n - 1, 2):
        m[i, i + 1] = m[i + 1, i] = 0.5
    return m


def kernel_stack(rng, n):
    """Complex densities of rank 1, 2 and n; real symmetric slices (a real
    density, a Werner state at n = 4, signed zeros); a diagonal slice and the
    zero matrix."""
    slices = [random_density(rng, n, rank) for rank in (1, 2, n) for _ in range(2)]
    slices.append(real_density(rng, n))
    if n == 4:
        slices.append(werner(0.7).rho)
    slices.append(signed_zeros(n))
    slices.append(np.diag(rng.standard_normal(n)).astype(complex))
    slices.append(np.zeros((n, n), dtype=complex))
    return np.array(slices)


def reference_jacobi_eigh(a, v, max_rotations):
    """The loop twin with a contiguous copy of each column and row it rotates.

    ``qir._jacobi_py.jacobi_eigh`` must give these bytes: it works on a
    fused ``[a; v]`` buffer and strided views, and numpy's multiply loop may
    round by operand layout.
    """
    n = a.shape[0]
    thr = 1e-14 * float(np.linalg.norm(a))
    skip = thr / n if n > 0 else 0.0
    rotations = 0
    while True:
        if float(np.linalg.norm(a - np.diag(np.diag(a)))) <= thr:
            return rotations, True
        if rotations >= max_rotations:
            return rotations, False
        for p in range(n - 1):
            if rotations >= max_rotations:
                break
            for q in range(p + 1, n):
                if rotations >= max_rotations:
                    break
                apq = a[p, q]
                beta = abs(apq)
                if beta <= skip:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                theta = (aqq - app) / (2.0 * beta)
                sgn = 1.0 if theta >= 0.0 else -1.0
                t = -sgn / (sgn * theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c * (apq.conjugate() / beta)

                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp + s * colq
                a[:, q] = -np.conj(s) * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp + np.conj(s) * rowq
                a[q, :] = -s * rowp + c * rowq
                a[p, p] = app + t * beta
                a[q, q] = aqq - t * beta
                a[p, q] = 0.0
                a[q, p] = 0.0

                colp = v[:, p].copy()
                colq = v[:, q].copy()
                v[:, p] = c * colp + s * colq
                v[:, q] = -np.conj(s) * colp + c * colq
                rotations += 1


REFERENCE = SimpleNamespace(jacobi_eigh=reference_jacobi_eigh)


def loop_twin(kernel, m, budget):
    a, v = m.copy(), np.eye(m.shape[0], dtype=complex)
    rotations, converged = kernel.jacobi_eigh(a, v, budget)
    return a, v, rotations, converged


def run_stack(run, ms, budget):
    a = ms.copy()
    v = np.broadcast_to(np.eye(ms.shape[1], dtype=complex), ms.shape).copy()
    rotations, converged = run(a, v, budget)
    return a, v, rotations, converged


def assert_slices_equal_twin(kernel, ms, stacked, budget):
    a, v, rotations, converged = stacked
    assert rotations.shape == converged.shape == (len(ms),)
    for i, m in enumerate(ms):
        a1, v1, rot1, conv1 = loop_twin(kernel, m, budget)
        assert (rotations[i], converged[i]) == (rot1, conv1), (i, m.shape)
        # bytes, so that the sign of a zero counts too
        assert a[i].tobytes() == a1.tobytes(), (i, m.shape, budget)
        assert v[i].tobytes() == v1.tobytes(), (i, m.shape, budget)


@needs_compiled
def test_kernel_rotation_counts_match(rng, restore_backend):
    """Same rotation schedule implies identical rotation counts.

    Checked on a random 9 x 9 Hermitian matrix and on every slice of
    ``kernel_stack`` at every n of ``STACK_SIZES``, where exact zeros and
    skipped pivots occur. The twins round differently in the last bits, so
    on a density with a null space an entry that is zero up to rounding can
    sit on either side of the skip level in the last sweep; there the counts
    may differ, by less than one sweep.
    """
    from qir import _jacobi, _jacobi_py

    matrices = [random_hermitian(rng, 9)] + [m for n in STACK_SIZES for m in kernel_stack(rng, n)]
    for m in matrices:
        n = m.shape[0]
        a1, _, rot1, conv1 = loop_twin(_jacobi, m, 100 * n * n)
        a2, _, rot2, conv2 = loop_twin(_jacobi_py, m, 100 * n * n)
        assert conv1 and conv2
        if 0 < np.linalg.matrix_rank(m) < n:
            assert abs(rot1 - rot2) < n * (n - 1) // 2, (n, rot1, rot2)
        else:
            assert rot1 == rot2, (n, rot1, rot2)
        assert np.abs(a1 - a2).max() <= 1e-12


@pytest.mark.parametrize("n", STACK_SIZES)
def test_loop_twin_is_bitwise_the_reference(rng, n):
    from qir import _jacobi_py

    for m in kernel_stack(rng, n):
        for budget in (0, 1, 3, 7, 100 * n * n):
            a, v, rotations, converged = loop_twin(_jacobi_py, m, budget)
            a0, v0, rotations0, converged0 = loop_twin(REFERENCE, m, budget)
            assert (rotations, converged) == (rotations0, converged0), (n, budget)
            assert a.tobytes() == a0.tobytes(), (n, budget)
            assert v.tobytes() == v0.tobytes(), (n, budget)


@pytest.mark.parametrize("n", STACK_SIZES)
def test_stack_is_bitwise_the_loop_twin(rng, n):
    from qir import _jacobi_py

    stacks = [kernel_stack(rng, n)]
    # full-rank densities alone: every slice rotates at every pivot of the first
    # sweep, where the stacked kernel rotates views instead of gathered copies
    stacks.append(np.array([random_density(rng, n) for _ in range(4)]))
    for ms in stacks:
        for budget in (0, 1, 3, 7, 100 * n * n):
            stacked = run_stack(_jacobi_py.jacobi_eigh_stack, ms, budget)
            assert_slices_equal_twin(_jacobi_py, ms, stacked, budget)
        assert stacked[3].all()


@pytest.mark.parametrize("n", STACK_SIZES)
def test_norms_are_bitwise_np_linalg_norm(rng, n):
    """The kernels' thresholds and convergence tests are ``np.linalg.norm``'s bytes.

    ``_jacobi_py._norms`` takes them for a whole stack from ``np.vecdot``,
    which must call the BLAS dot that ``np.linalg.norm`` reaches through
    ``ndarray.dot``. Checked on every ``kernel_stack`` slice and on its
    off-diagonal part, at three scales.
    """
    from qir import _jacobi_py

    ms = kernel_stack(rng, n)
    off = ms.copy()
    off[:, np.arange(n), np.arange(n)] = 0.0
    for scale in (1.0, 1e-12, 1e3):
        for stack in (ms * scale, off * scale):
            norms = _jacobi_py._norms(stack)
            assert norms.shape == (len(stack),)
            for i, m in enumerate(stack):
                assert norms[i].tobytes() == np.float64(np.linalg.norm(m)).tobytes(), (n, scale, i)
    assert _jacobi_py._norms(np.zeros((0, n, n), dtype=complex)).shape == (0,)


def test_stack_slice_alone_and_inside_a_stack(rng):
    from qir import _jacobi_py

    for n in (3, 9):
        ms = kernel_stack(rng, n)
        whole = run_stack(_jacobi_py.jacobi_eigh_stack, ms, 100 * n * n)
        for i in range(len(ms)):
            alone = run_stack(_jacobi_py.jacobi_eigh_stack, ms[i : i + 1], 100 * n * n)
            assert alone[0].tobytes() == whole[0][i].tobytes()
            assert alone[1].tobytes() == whole[1][i].tobytes()
            assert (alone[2][0], alone[3][0]) == (whole[2][i], whole[3][i])
    rotations, converged = _jacobi_py.jacobi_eigh_stack(
        np.zeros((0, 4, 4), dtype=complex), np.zeros((0, 4, 4), dtype=complex), 1600
    )
    assert rotations.shape == converged.shape == (0,)
    assert linalg.herm_eig_stack(np.zeros((0, 4, 4))).shape == (0, 4)


def test_herm_eig_stack_is_bitwise_herm_eig(rng, restore_backend):
    for name in backend.available_backends():
        backend.set_backend(name)
        for n in (1, 2, 4, 6):
            ms = kernel_stack(rng, n)
            values = linalg.herm_eig_stack(ms)
            for i, m in enumerate(ms):
                assert values[i].tobytes() == linalg.herm_eig(m).eigenvalues.tobytes()


@needs_compiled
def test_compiled_stack_loops_its_kernel(rng, restore_backend):
    from qir import _jacobi

    backend.set_backend("compiled")
    for n in (2, 5, 9):
        ms = kernel_stack(rng, n)
        for budget in (0, 3, 100 * n * n):
            stacked = run_stack(backend.jacobi_eigh_stack, ms, budget)
            assert_slices_equal_twin(_jacobi, ms, stacked, budget)
        assert linalg.herm_eig_stack(ms).tobytes() == np.array(
            [linalg.herm_eig(m).eigenvalues for m in ms]
        ).tobytes()


def test_shipped_c_matches_pyx():
    """Each ``_jacobi.pyx`` line that Cython quoted in ``_jacobi.c`` is unchanged.

    Cython opens a comment ``/* "qir/_jacobi.pyx":N`` before the C code of
    source line N and quotes that line with an arrow suffix. A mismatch means
    the shipped C was generated from another version of the ``.pyx``.
    """
    package = Path(qir.__file__).parent
    pyx = (package / "_jacobi.pyx").read_text().splitlines()
    c_lines = (package / "_jacobi.c").read_text().splitlines()
    marker = re.compile(r'/\* "qir/_jacobi\.pyx":(\d+)$')
    arrow = "             # <<<<<<<<<<<<<<"
    mismatches = []
    checked = 0
    for i, line in enumerate(c_lines):
        found = marker.search(line)
        if found is None:
            continue
        n = int(found.group(1))
        block = c_lines[i + 1 : c_lines.index("*/", i + 1)]
        (quoted,) = [q[len(" * ") : -len(arrow)] for q in block if q.endswith(arrow)]
        checked += 1
        if quoted != pyx[n - 1].rstrip():
            mismatches.append((i + 1, n, quoted, pyx[n - 1]))
    assert checked > 0
    assert not mismatches, f"_jacobi.c is stale against _jacobi.pyx: {mismatches[:3]}"
