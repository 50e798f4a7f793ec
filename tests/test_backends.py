"""The compiled and pure-Python Jacobi kernels must be interchangeable."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest

from qir import _jacobi_py, backend, linalg
from qir.errors import ConfigError
from qir.states import werner

from conftest import needs_compiled, random_density, random_hermitian


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
    report = qir.evaluate_relations(["eq11"], x, y, bell)["eq11"]
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


def mirror_rows(a, p, q, c, s):
    """Rows p and q of ``a`` copied from the rotated columns, conjugated."""
    a[p, :] = np.conj(a[:, p])
    a[q, :] = np.conj(a[:, q])


def rotate_rows(a, p, q, c, s):
    """Rows p and q of ``a`` rotated on their own by ``[[c, conj(s)], [-s, c]]``: the
    row update that copying the columns replaces, kept to show that the two agree on
    exactly Hermitian input."""
    rowp = a[p, :].copy()
    rowq = a[q, :].copy()
    a[p, :] = c * rowp + np.conj(s) * rowq
    a[q, :] = -s * rowp + c * rowq


def reference_jacobi_eigh(a, v, max_rotations, row_step=mirror_rows):
    """The loop twin with a contiguous copy of each column it rotates.

    ``qir._jacobi_py.jacobi_eigh`` must give these bytes: it works on a
    fused ``[a^T | v^T]`` buffer and a broadcast over rows of it, and numpy's
    multiply loop may round by operand layout. ``row_step`` sets rows p and q
    of ``a`` after the columns have turned.
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
                row_step(a, p, q, c, s)
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
ROW_UPDATE_REFERENCE = SimpleNamespace(
    jacobi_eigh=lambda a, v, budget: reference_jacobi_eigh(a, v, budget, row_step=rotate_rows)
)


def loop_twin(kernel, m, budget):
    a, v = m.copy(), np.eye(m.shape[0], dtype=complex)
    rotations, converged = kernel.jacobi_eigh(a, v, budget)
    return a, v, rotations, converged


def with_identity(ms):
    """The kernel buffer ``[a; I]`` of each slice of ``ms``: ``(k, 2n, n)``, C-contiguous."""
    return np.concatenate((ms, np.broadcast_to(np.eye(ms.shape[1], dtype=complex), ms.shape)), axis=1)


def run_stack(run, ms, budget):
    """``run`` on ``[a; I]``, eigenvectors wanted; ``a``, ``v``, rotations and flags."""
    b = with_identity(ms)
    rotations, converged = run(b, budget)
    n = ms.shape[1]
    return b[:, :n], b[:, n:], rotations, converged


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
    skipped pivots occur. Both twins copy rows from the conjugated columns,
    but they still round differently in the last bits (beta is ``hypot`` in
    Python, ``sqrt(|a_pq|^2)`` in C), so on a density with a null space an
    entry that is zero up to rounding can sit on either side of the skip
    level in the last sweep; there the counts may differ, by less than one
    sweep. Over 12 seeds that happens in 20 of 144 rank-2 slices at n >= 3,
    by 1-2 rotations, and in no other slice.
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
    for m in kernel_stack(rng, n):
        for budget in (0, 1, 3, 7, 100 * n * n):
            a, v, rotations, converged = loop_twin(_jacobi_py, m, budget)
            a0, v0, rotations0, converged0 = loop_twin(REFERENCE, m, budget)
            assert (rotations, converged) == (rotations0, converged0), (n, budget)
            assert a.tobytes() == a0.tobytes(), (n, budget)
            assert v.tobytes() == v0.tobytes(), (n, budget)


def pivot_parts(rng, count):
    """``count`` pivots ``(apq, app, aqq)`` as Python numbers. Each real part is
    ordinary, +-0.0, tiny (1e-300) or large (1e300); no ``apq`` is zero. A third
    of the pivots tie at theta = +0 (``app == aqq``), a tenth at theta = -0
    (``aqq = -0.0``, ``app = 0.0``)."""
    scales = np.array([1.0, 0.0, -0.0, 1e-300, 1e300])

    def parts():
        return scales[rng.integers(0, len(scales), count)] * rng.standard_normal(count)

    re, im, app, aqq = parts(), parts(), parts(), parts()
    re[(re == 0.0) & (im == 0.0)] = 1.0
    tied = rng.random(count) < 1 / 3
    aqq[tied] = app[tied]
    minus = rng.random(count) < 0.1
    app[minus], aqq[minus] = 0.0, -0.0
    return (re + 1j * im).tolist(), app.tolist(), aqq.tolist()


def numpy_pivot(apq, app, aqq):
    """The pivot arithmetic with ``s`` and ``-conj(s)`` on numpy complex scalars, as
    the reference body computes them, and the rest on Python floats."""
    beta = float(abs(apq))
    theta = (aqq - app) / (2.0 * beta)
    sgn = 1.0 if theta >= 0.0 else -1.0
    t = -sgn / (sgn * theta + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    s = t * c * (apq.conjugate() / beta)
    return app + t * beta, aqq - t * beta, c, s, -np.conj(s)


def test_scalar_pivot_is_bitwise_numpys_complex_scalars(rng):
    """``_scalar_pivot`` gives the bytes of numpy's complex-scalar pivot arithmetic
    (the pinned diagonal, c, ``s = t * c * (apq.conjugate() / beta)`` and
    ``-np.conj(s)``), signed zeros included, on 10^5 pivots with zero, signed-zero,
    tiny and large parts and ties at theta = +-0; and the bytes of ``_pivot``,
    the stacked bodies' ufuncs, on the same pivots."""
    apq, app, aqq = pivot_parts(rng, 100_000)
    got = [_jacobi_py._scalar_pivot(z, abs(z), x, y) for z, x, y in zip(apq, app, aqq)]
    want = [numpy_pivot(np.complex128(z), x, y) for z, x, y in zip(apq, app, aqq)]
    got, want = np.array(got, dtype=complex), np.array(want, dtype=complex)
    assert got.tobytes() == want.tobytes()
    apq = np.array(apq)
    with np.errstate(over="ignore"):  # theta * theta of a large gap over a tiny pivot
        pinned, coef = _jacobi_py._pivot(apq, np.hypot(apq.real, apq.imag), np.array(app), np.array(aqq))
    assert pinned[0].tobytes() == got[:, 0].real.copy().tobytes()
    assert pinned[1].tobytes() == got[:, 1].real.copy().tobytes()
    assert coef[0, 0].tobytes() == coef[1, 1].tobytes() == got[:, 2].tobytes()
    assert coef[0, 1].tobytes() == got[:, 3].tobytes()
    assert coef[1, 0].tobytes() == got[:, 4].tobytes()


def skip_tie():
    """A 3 x 3 slice whose pivot (0, 1) has magnitude exactly the skip level
    ``thr / 3`` and whose off-diagonal norm is above ``thr``, from the (1, 2)
    entry. Its other entries are dyadic with exact squares, so that every
    summation order gives the threshold the same bits, the C twin's included."""
    a = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.25]], dtype=complex)
    skip = _jacobi_py.OFF_NORM_FACTOR * math.sqrt(1.8125) / 3
    a[0, 1] = a[1, 0] = skip
    return a, skip


@pytest.mark.parametrize("body", ["loop", "stacked", "compiled"])
def test_a_pivot_at_the_skip_level_is_skipped(body, request, monkeypatch, restore_backend):
    """Every sweep body skips a pivot of magnitude exactly ``thr / n`` (``beta <=
    skip``): the one rotation goes to (1, 2), after which the slice has converged,
    and column 0 of ``v`` stays e_0. The stacked body is forced with ``SMALL_STACK = 0``."""
    a, skip = skip_tie()
    thr = 3 * skip
    # the premise: the tie entry leaves the norm's bits as they are, in BLAS order
    # and summed |a|^2 in sequence, as the C twin sums it
    assert _jacobi_py.OFF_NORM_FACTOR * _jacobi_py._norms(a[None])[0] == thr
    fro2 = 0.0
    for x in a.ravel().tolist():
        fro2 += x.real * x.real + x.imag * x.imag
    assert _jacobi_py.OFF_NORM_FACTOR * math.sqrt(fro2) == thr
    assert float(np.linalg.norm(a - np.diag(np.diag(a)))) > thr
    if body == "compiled":
        request.getfixturevalue("compiled_kernel")
        from qir import _jacobi as kernel
    else:
        kernel = _jacobi_py
        monkeypatch.setattr(_jacobi_py, "SMALL_STACK", 1 if body == "loop" else 0)
    ms = np.array([a, a])[: 1 if body == "loop" else 2]
    _, v1, rotations, converged = run_stack(kernel.jacobi_eigh_stack, ms, 100 * 9)
    assert list(rotations) == [1] * len(ms) and all(converged), body
    e0 = np.eye(3, dtype=complex)[0]
    assert (v1[:, :, 0] == e0).all() and (v1[:, 0, :] == e0).all(), body


def skewed_with_signed_zeros(rng, n):
    """Densities 1e-12 off Hermitian, with -0.0 in entries the kernel reads; positive definite
    (eigenvalues at least 0.9 / n before the zeros), so that they make states."""
    ms = []
    for _ in range(3):
        m = 0.1 * random_density(rng, n) + 0.9 * np.eye(n) / n
        m += 1e-12 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        m[0, n - 1], m[n - 1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
        m[1, 2] = m[2, 1] = complex(-0.0, -0.0)
        m.imag[np.arange(n), np.arange(n)] = -0.0
        ms.append(m)
    return np.array(ms)


def test_every_matrix_handed_to_the_kernel_is_exactly_hermitian(rng, monkeypatch):
    """Every ``a`` that reaches the kernel entry has the bytes of its conjugate
    transpose up to the sign of a zero (adding 0.0 maps -0.0 to 0.0): the premise
    of copying rows from the conjugated columns.

    The entry is wrapped at ``qir.backend`` and every route that ends in the
    kernel runs: a state's constructor (on skewed input with signed zeros),
    ``herm_eig``, an eq16 ``evaluate_relations``, a 21-point
    ``monitoring_sweep``, ``monitor_n`` and a ``minimize_slack`` evaluation.
    """
    import qir
    from qir.explore import minimize_slack, monitoring_sweep

    handed = []
    kernel = backend.jacobi_eigh_stack

    def recording(b, max_rotations):
        handed.append(b[:, : b.shape[2]].copy())
        return kernel(b, max_rotations)

    monkeypatch.setattr(backend, "jacobi_eigh_stack", recording)

    def routes():
        for d_a, d_b in ((2, 2), (3, 2), (5, 3)):
            skewed = skewed_with_signed_zeros(rng, d_a * d_b)
            state = qir.BipartiteState(d_a, d_b, skewed[0])
            x, y = qir.random_basis(d_a, (1, d_a)), qir.random_basis(d_a, (2, d_a))
            yield "state", lambda: [qir.BipartiteState(d_a, d_b, m) for m in skewed]
            yield "herm_eig", lambda: linalg.herm_eig(skewed[1])
            yield "eq16", lambda: qir.evaluate_relations(["eq16"], x, y, state, eps=0.3)
            yield "sweep", lambda: monitoring_sweep(x, y, state, np.linspace(0.0, 1.0, 21))
            yield "monitor_n", lambda: qir.monitor_n(y, 0.3, 3, state)
        yield "minimize", lambda: minimize_slack("eq11", 2, 2, restarts=1, seed=7, max_evals=1)

    for name, run in routes():
        handed.clear()
        run()
        assert handed, name
        for a in handed:
            adjoint = np.swapaxes(a.conj(), -1, -2)
            assert np.array_equal(a, adjoint), name
            assert (a + 0.0).tobytes() == (adjoint + 0.0).tobytes(), name


@pytest.mark.parametrize("n", STACK_SIZES)
def test_mirrored_rows_are_the_rotated_rows_on_hermitian_input(rng, n):
    """On an exactly Hermitian matrix, copying rows p and q from the conjugated
    columns gives what rotating the rows gives.

    For j outside {p, q} the row update computes ``c a[p,j] + conj(s) a[q,j]`` and
    the mirror ``conj(c a[j,p] + s a[j,q])``, equal in IEEE arithmetic up to the
    sign of a zero. So the rotation counts, flags, diagonal and ``v`` keep their
    bytes, and ``a`` its values. Every matrix qir hands the kernel is symmetrized
    this way.
    """
    ms = linalg._hermitian_part(kernel_stack(rng, n))
    for m in ms:
        for budget in (0, 1, 3, 7, 100 * n * n):
            a, v, rotations, converged = loop_twin(_jacobi_py, m, budget)
            a0, v0, rotations0, converged0 = loop_twin(ROW_UPDATE_REFERENCE, m, budget)
            assert (rotations, converged) == (rotations0, converged0), (n, budget)
            assert np.diagonal(a).tobytes() == np.diagonal(a0).tobytes(), (n, budget)
            assert v.tobytes() == v0.tobytes(), (n, budget)
            assert np.array_equal(a, a0), (n, budget)


@pytest.mark.parametrize("n", STACK_SIZES)
def test_stack_is_bitwise_the_loop_twin(rng, n):
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
    ``ndarray.dot``; the loop body's tests take one slice's off-diagonal
    norm from ``_off_norm``, in Python floats. Checked on every
    ``kernel_stack`` slice and on its off-diagonal part, at five scales.
    """
    ms = kernel_stack(rng, n)
    off = ms.copy()
    off[:, np.arange(n), np.arange(n)] = 0.0
    for scale in (1.0, 1e-20, 1e-12, 1e3, 1e5):
        for stack in (ms * scale, off * scale):
            norms = _jacobi_py._norms(stack)
            assert norms.shape == (len(stack),)
            for i, m in enumerate(stack):
                assert norms[i].tobytes() == np.float64(np.linalg.norm(m)).tobytes(), (n, scale, i)
        for i, m in enumerate(ms * scale):
            kept = m.copy()
            got = _jacobi_py._off_norm(m)
            assert type(got) is float and m.tobytes() == kept.tobytes()
            assert np.float64(got).tobytes() == np.float64(np.linalg.norm(off[i] * scale)).tobytes(), (n, scale, i)
    assert _jacobi_py._norms(np.zeros((0, n, n), dtype=complex)).shape == (0,)


def test_stack_slice_alone_and_inside_a_stack(rng):
    for n in (3, 9):
        ms = kernel_stack(rng, n)
        whole = run_stack(_jacobi_py.jacobi_eigh_stack, ms, 100 * n * n)
        for i in range(len(ms)):
            alone = run_stack(_jacobi_py.jacobi_eigh_stack, ms[i : i + 1], 100 * n * n)
            assert alone[0].tobytes() == whole[0][i].tobytes()
            assert alone[1].tobytes() == whole[1][i].tobytes()
            assert (alone[2][0], alone[3][0]) == (whole[2][i], whole[3][i])
    for m in (4, 8):
        rotations, converged = _jacobi_py.jacobi_eigh_stack(np.zeros((0, m, 4), dtype=complex), 1600)
        assert rotations.shape == converged.shape == (0,)
    assert linalg._stack_eigenvalues(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4)


@needs_compiled
def test_stack_eigenvalues_is_bitwise_herm_eig(rng, restore_backend):
    # at n >= 3 on the Python kernel the first SMALL_STACK slices run slice by
    # slice, the first SMALL_STACK + 1 and the whole kernel_stack stacked; at
    # n <= 2 every stack of two or more slices runs unrolled
    small = _jacobi_py.SMALL_STACK
    assert backend.available_backends() == ("compiled", "python")
    for name in backend.available_backends():
        backend.set_backend(name)
        for n in (1, 2, 4, 6):
            ms = kernel_stack(rng, n)
            assert len(ms) > small + 1
            values = linalg._stack_eigenvalues(ms)
            for i, m in enumerate(ms):
                assert values[i].tobytes() == linalg.herm_eig(m).eigenvalues.tobytes()
            for k in (small, small + 1):
                assert linalg._stack_eigenvalues(ms[:k]).tobytes() == values[:k].tobytes(), (name, n, k)


def test_kernel_entry_follows_the_stack_size(rng, restore_backend, monkeypatch):
    # on the Python kernel, up to SMALL_STACK slices run _rotate slice by slice
    # and a larger stack _rotate_stack; both give a slice the same bytes and rotations
    backend.set_backend("python")
    calls = []
    rotate, rotate_stack = _jacobi_py._rotate, _jacobi_py._rotate_stack

    def recording_rotate(b, n, thr, max_rotations):
        rotations, converged = rotate(b, n, thr, max_rotations)
        calls.append(("_rotate", b.shape, [rotations]))
        return rotations, converged

    def recording_rotate_stack(b, n, thr, max_rotations):
        rotations, converged = rotate_stack(b, n, thr, max_rotations)
        calls.append(("_rotate_stack", b.shape, list(rotations)))
        return rotations, converged

    monkeypatch.setattr(_jacobi_py, "_rotate", recording_rotate)
    monkeypatch.setattr(_jacobi_py, "_rotate_stack", recording_rotate_stack)
    k = _jacobi_py.SMALL_STACK
    ms = np.array([random_hermitian(rng, 3) for _ in range(k + 1)])
    small = linalg._stack_eigenvalues(ms[:k])
    assert [(body, shape) for body, shape, _ in calls] == [("_rotate", (3, 3))] * k
    per_slice = [r for _, _, (r,) in calls]
    calls.clear()
    large = linalg._stack_eigenvalues(ms)
    assert [(body, shape) for body, shape, _ in calls] == [("_rotate_stack", (k + 1, 3, 3))]
    assert calls[0][2][:k] == per_slice
    assert small.tobytes() == large[:k].tobytes()


@pytest.mark.parametrize("n", STACK_SIZES)
def test_stacked_body_is_bitwise_the_loop_on_small_stacks(rng, n, monkeypatch):
    """``_rotate_stack`` runs in production only above ``SMALL_STACK`` slices.
    Forced onto stacks of 1 to ``SMALL_STACK`` + 1 slices, every window of
    ``kernel_stack``, it gives each slice the loop route's bytes, rotations and flags."""
    ms = kernel_stack(rng, n)
    for k in range(1, _jacobi_py.SMALL_STACK + 2):
        for start in range(0, len(ms), k):
            window = ms[start : start + k]
            for budget in (0, 1, 3, 100 * n * n):
                runs = []
                for small in (len(window), 0):  # the loop route, then the stacked body
                    monkeypatch.setattr(_jacobi_py, "SMALL_STACK", small)
                    runs.append(run_stack(_jacobi_py.jacobi_eigh_stack, window, budget))
                (a0, v0, r0, c0), (a1, v1, r1, c1) = runs
                assert r0.tobytes() == r1.tobytes() and c0.tobytes() == c1.tobytes(), (n, k, budget)
                assert a0.tobytes() == a1.tobytes(), (n, k, budget)
                assert v0.tobytes() == v1.tobytes(), (n, k, budget)


def leaving_stack(rng):
    """6 x 6 slices that leave the stacked body at different sweeps: a diagonal
    slice, a rank-1 and two full-rank densities, and ``|0><0| (x) 1/d_B`` at
    (d_A, d_B) = (3, 2) monitored at three strengths, the first of which leaves
    it diagonal; as ``linalg._hermitian_part`` hands them to the kernel."""
    import qir

    ket0 = np.zeros((3, 3), dtype=complex)
    ket0[0, 0] = 1.0
    state = qir.BipartiteState(3, 2, np.kron(ket0, np.eye(2) / 2))
    y = qir.random_basis(3, (2, 3))
    slices = [np.diag(rng.standard_normal(6)).astype(complex), random_density(rng, 6, 1),
              random_density(rng, 6), random_density(rng, 6)]
    slices += [qir.monitor(y, eps, state).rho for eps in (0.0, 0.4, 1.0)]
    return linalg._hermitian_part(np.array(slices))


@pytest.mark.parametrize("eigenvectors", [False, True])
def test_slices_leave_the_stacked_body_at_different_sweeps(rng, eigenvectors):
    """``_rotate_stack`` writes a slice back when it converges or its budget is
    spent, and turns gathered copies where some live slices skip a pivot or are
    out of budget. On a stack whose slices converge at different sweeps, at
    budgets that end inside a sweep, each slice gets ``_rotate``'s bytes of ``a``
    (and ``v``), rotation count and flag; so do a stack of one slice and a stack
    of 1 x 1 slices, forced through the stacked body."""
    ms = leaving_stack(rng)
    full = swept(ms, 100 * 36, True, eigenvectors)[2]
    # the premise: the slices leave after different numbers of sweeps of 15 pivots
    assert full[0] == full[4] == 0 and len(set((full + 14) // 15)) >= 3, full
    ones = rng.standard_normal((3, 1, 1)) + 0j
    for stack in (ms, ms[3:4], ones):
        n = stack.shape[1]
        for budget in (0, 1, 7, 22, 37, int(full.max()) - 1, 100 * n * n):
            a, v, r, c = swept(stack, budget, True, eigenvectors)
            a0, v0, r0, c0 = swept(stack, budget, False, eigenvectors)
            assert r.tobytes() == r0.tobytes() and c.tobytes() == c0.tobytes(), (n, len(stack), budget)
            assert a.tobytes() == a0.tobytes(), (n, len(stack), budget)
            assert v.tobytes() == v0.tobytes(), (n, len(stack), budget)
            if stack is ms and budget == 22:
                # the premise: some slices have converged and some ran out of budget
                assert c.any() and not c.all() and (r == 22).any(), (r, c)


def test_coefficient_first_products_are_the_scalar_times_row_bytes(rng):
    """The layout fact the stacked body rests on: with the coefficient first, a
    product of slice-contiguous complex vectors, ``coef[i] * col[r, i]`` over the
    slices i, gives each slice the bytes of its coefficient times its contiguous
    row, the loop body's product. Checked for real ``c`` cast to complex and for
    complex ``s``, with signed zeros and tiny and large parts."""
    k, m = 37, 12
    scales = np.array([1.0, 0.0, -0.0, 1e-300, 1e300, 1e-160])

    def parts(shape):
        return scales[rng.integers(0, len(scales), shape)] * rng.standard_normal(shape)

    rows = parts((k, m)) + 1j * parts((k, m))  # each slice's row, contiguous
    cols = np.ascontiguousarray(rows.T)  # slice-minor: entry r of every slice is one row
    c = np.abs(parts(k)).astype(complex)  # real c, cast to complex as the pivot writes it
    s = parts(k) + 1j * parts(k)
    with np.errstate(over="ignore", invalid="ignore"):
        for coef in (c, s, -np.conj(s)):
            got = coef * cols
            want = np.array([coef[i] * rows[i] for i in range(k)]).T
            assert got.tobytes() == want.tobytes(), (
                "numpy's complex multiply loop rounds a coefficient-first product of slice-contiguous "
                "vectors otherwise than a scalar times a contiguous row on this machine")


@needs_compiled
def test_compiled_stack_loops_its_kernel(rng, restore_backend):
    from qir import _jacobi

    backend.set_backend("compiled")
    for n in (2, 5, 9):
        ms = kernel_stack(rng, n)
        for budget in (0, 3, 100 * n * n):
            stacked = run_stack(backend.jacobi_eigh_stack, ms, budget)
            assert_slices_equal_twin(_jacobi, ms, stacked, budget)
        assert linalg._stack_eigenvalues(ms).tobytes() == np.array(
            [linalg.herm_eig(m).eigenvalues for m in ms]
        ).tobytes()


def looped(kernel):
    """A stack entry made of one ``kernel.jacobi_eigh`` call per slice."""

    def run(b, budget):
        n = b.shape[2]
        results = [kernel.jacobi_eigh(b[i, :n], b[i, n:], budget) for i in range(len(b))]
        return [r for r, _ in results], [c for _, c in results]

    return run


def kernel_digest(run, ms):
    """sha256 of the bytes of ``a`` and ``v``, the rotation counts and the flags at
    budgets 0, 1, 3, 7 and 100 n^2."""
    n = ms.shape[1]
    digest = hashlib.sha256()
    for budget in (0, 1, 3, 7, 100 * n * n):
        a, v, rotations, converged = run_stack(run, ms, budget)
        for part in (a, v, np.asarray(rotations, dtype=np.int64), np.asarray(converged, dtype=bool)):
            digest.update(part.tobytes())
    return digest.hexdigest()


# sha256 of kernel_stack(np.random.default_rng(20260809), n), and kernel_digest of
# the compiled twin that Cython 3.2.8 generated from the .pyx body (gcc 12.2 -O2,
# x86-64), which the hand-written C replaced
KERNEL_STACK_DIGESTS = {
    1: "ba4e228683f112e9f8105e56039f42e4aa66c1a3ee99b1184753540befcc616b",
    2: "78aed8dcce8bd890e1b2fc13b372ea4192e6d4deefb148ee0d0d0784f1fdcad9",
    3: "8fe2b3952a2ac4cd242554670fb114154867af5961fadc71917b03b4726953e0",
    4: "fad797c257f6391a051d67788978625643bb8390f74356e8b8bfd9b4f727c92b",
    5: "db818e4f81b361609d0577ce35979dc188cbf6f09aa3bcb0fefd813e5ee26446",
    6: "be767a193d50d95ad7b4690b5788725fb33d1df246937db74f6d2543bb807e3b",
    9: "af25d78efa803178546009316e5af2666f98d6e6ede4330fe72b62fbd1229bca",
    15: "68951dbab96a982ce4c44b7d1f0033e3e808c6ab3b14aaf3c0025d0a7f8d4dd7",
}
CYTHON_DIGESTS = {
    1: "423ca4c44795136c37a24f1ec4c490480ef7288d71ffa7a5c57e8ebd2c04bd3a",
    2: "d087f2c476bd95c364d334b80180dbece8075e3675812aa03ed2e46e7da7971c",
    3: "905e44d8ad283903cd46af8c313c0b840203a93a7f64ef0dc066197023b2de58",
    4: "3484ed491abdc418ae8ee52eee39cb4dac0a8c6563ec43668239a00af55a9a04",
    5: "0df8eae8463156aa5ba9a4bde5e1f4473e5855fd6b5aaefbf7023402ee0deb3f",
    6: "f8681d605751042a0dd4d257efa40589efbf7523165a183e8eb0bad1ff09208b",
    9: "5722e94a7c6afa966e87e8fa7b2f270704307ebf782b85b971f07873fe9d2c6b",
    15: "945865069c50cb59d09e8f59f12483968158e4dd0e4e499cfb3a0fe08ad86af8",
}


@needs_compiled
@pytest.mark.parametrize("n", STACK_SIZES)
def test_compiled_twin_gives_the_cython_builds_bytes(rng, n):
    """Both compiled entries give the Cython-generated twin's bytes, signed zeros included."""
    from qir import _jacobi

    ms = kernel_stack(rng, n)
    assert hashlib.sha256(ms.tobytes()).hexdigest() == KERNEL_STACK_DIGESTS[n], (
        "kernel_stack's inputs moved (numpy or BLAS), so the recorded digests do not apply"
    )
    assert kernel_digest(looped(_jacobi), ms) == CYTHON_DIGESTS[n]
    assert kernel_digest(_jacobi.jacobi_eigh_stack, ms) == CYTHON_DIGESTS[n]


@needs_compiled
@pytest.mark.parametrize("entry", ["jacobi_eigh", "jacobi_eigh_stack"])
def test_compiled_entries_reject_bad_buffers(entry):
    """The C reads raw buffers, so every shape, type and layout it cannot use is a ``ValueError``.

    ``jacobi_eigh`` takes ``a`` and ``v``; ``jacobi_eigh_stack`` takes one
    ``(k, m, n)`` buffer with m = n or 2n.
    """
    from qir import _jacobi

    def eye(n, k=()):
        return np.broadcast_to(np.eye(n, dtype=complex), k + (n, n)).copy()

    def read_only(a):
        a.setflags(write=False)
        return a

    if entry == "jacobi_eigh":
        bad = {
            "float64": (eye(3).real.copy(), eye(3)),
            "non-contiguous row": (np.zeros((3, 6), dtype=complex)[:, ::2], eye(3)),
            "non-square": (np.zeros((3, 4), dtype=complex), np.zeros((3, 4), dtype=complex)),
            "shapes differ": (eye(3), eye(4)),
            "read-only a": (read_only(eye(3)), eye(3)),
            "read-only v": (eye(3), read_only(eye(3))),
            "one axis too many": (eye(3, (1,)), eye(3, (1,))),
        }
    else:
        bad = {
            "float64": (np.zeros((2, 6, 3)),),
            "non-contiguous row": (np.zeros((2, 6, 6), dtype=complex)[..., ::2],),
            "m below n": (np.zeros((2, 3, 4), dtype=complex),),
            "m neither n nor 2n": (np.zeros((2, 5, 3), dtype=complex),),
            "m = 3n": (np.zeros((2, 9, 3), dtype=complex),),
            "read-only": (read_only(np.zeros((2, 6, 3), dtype=complex)),),
            "one axis too many": (eye(3, (1, 2)),),
            "a matrix, not a stack": (np.eye(3, dtype=complex),),
        }
    run = getattr(_jacobi, entry)
    accepted = []
    for what, buffers in bad.items():
        try:
            run(*buffers, 10)
        except ValueError:
            continue
        accepted.append(what)
    assert not accepted


@needs_compiled
def test_compiled_stack_of_none(restore_backend):
    from qir import _jacobi

    backend.set_backend("compiled")
    for m in (4, 8):
        empty = np.zeros((0, m, 4), dtype=complex)
        assert _jacobi.jacobi_eigh_stack(empty, 1600) == ([], [])
        rotations, converged = backend.jacobi_eigh_stack(empty, 1600)
        assert (rotations.dtype, converged.dtype, rotations.shape, converged.shape) == (
            np.int64, np.bool_, (0,), (0,)
        )
    assert linalg._stack_eigenvalues(np.zeros((0, 4, 4), dtype=complex)).shape == (0, 4)


def small_stacks(rng, n):
    """Stacks of n x n slices: ``kernel_stack``, each of its slices alone, slices
    whose off-diagonal norm sits just below or above the convergence threshold,
    and, for k = 0..40, random Hermitian matrices and rank-1 densities."""
    ms = kernel_stack(rng, n)
    stacks = [ms, *(ms[i : i + 1] for i in range(len(ms)))]
    # I + x (|x| = f * 1e-14) has off-diagonal norm sqrt(2) |x| against a threshold of
    # about sqrt(2) * 1e-14, and rotates when |x| is above half of that
    upper = np.triu(np.ones((n, n)), 1)
    phases = np.exp(2j * np.pi * rng.random(4))
    stacks.append(np.array([np.eye(n) + f * 1e-14 * (p * upper + np.conj(p) * upper.T)
                            for f in (0.6, 0.9, 1.1) for p in phases]))
    for k in range(41):
        stacks.append(np.array([random_hermitian(rng, n) for _ in range(k)], dtype=complex).reshape(k, n, n))
        stacks.append(np.array([random_density(rng, n, 1) for _ in range(k)], dtype=complex).reshape(k, n, n))
    return stacks


def swept(ms, budget, stacked, eigenvectors=True):
    """The sweep bodies on a stack, as ``jacobi_eigh_stack`` runs them at n >= 3:
    ``_rotate_stack`` on the whole stack, or ``_rotate`` slice by slice; on the
    buffer ``[a; I]`` or, without ``eigenvectors``, on ``a`` alone."""
    k, n = ms.shape[0], ms.shape[1]
    b = with_identity(ms) if eigenvectors else ms.copy()
    bt = b.transpose(0, 2, 1)  # each slice column-major, as the bodies take it
    thr = _jacobi_py.OFF_NORM_FACTOR * _jacobi_py._norms(ms)
    if stacked:
        rotations, converged = _jacobi_py._rotate_stack(bt, n, thr, budget)
    else:
        runs = [_jacobi_py._rotate(bt[i], n, float(thr[i]), budget) for i in range(k)]
        rotations = np.array([r for r, _ in runs], dtype=np.int64).reshape(k)
        converged = np.array([c for _, c in runs], dtype=bool).reshape(k)
    return b[:, :n], b[:, n:], rotations, converged


@pytest.mark.parametrize("n", [1, 2])
def test_unrolled_route_is_bitwise_the_sweeps(rng, n):
    """The schedule unrolled for n <= 2 (``_jacobi_py._unrolled``) gives every slice
    the bytes of ``a`` and ``v``, rotations and flags of both sweep bodies,
    ``_rotate`` and ``_rotate_stack``, at every budget."""
    for ms in small_stacks(rng, n):
        ms = linalg._hermitian_part(ms)
        for budget in (0, 1, 3, 100 * n * n):
            a, v, r, c = run_stack(_jacobi_py._unrolled, ms, budget)
            assert (r.dtype, c.dtype) == (np.int64, np.bool_)
            for stacked in (False, True):
                a0, v0, r0, c0 = swept(ms, budget, stacked)
                assert r0.tobytes() == r.tobytes() and c0.tobytes() == c.tobytes(), (len(ms), budget, stacked)
                assert a0.tobytes() == a.tobytes(), (len(ms), budget, stacked)
                assert v0.tobytes() == v.tobytes(), (len(ms), budget, stacked)


@pytest.mark.parametrize("n", [1, 2])
def test_small_slices_run_unrolled_from_two_slices_on(rng, n, restore_backend, monkeypatch):
    # on the Python kernel, a stack of one n <= 2 slice runs _rotate and a larger one _unrolled
    backend.set_backend("python")
    ran = []

    def recording(name):
        body = getattr(_jacobi_py, name)

        def run(*args):
            ran.append(name)
            return body(*args)

        return run

    for name in ("_rotate", "_rotate_stack", "_unrolled"):
        monkeypatch.setattr(_jacobi_py, name, recording(name))
    ms = kernel_stack(rng, n)
    for k in (1, 2, _jacobi_py.SMALL_STACK + 1, len(ms)):
        ran.clear()
        linalg._stack_eigenvalues(ms[:k])
        assert ran == (["_rotate"] if k == 1 else ["_unrolled"]), k


@pytest.fixture(params=["python", "compiled"])
def each_backend(request, restore_backend):
    """Each backend in turn, the compiled one built from the shipped C if need be."""
    if request.param == "compiled":
        request.getfixturevalue("compiled_kernel")
    backend.set_backend(request.param)
    return request.param


@pytest.mark.parametrize("n", [1, 2])
def test_small_stacks_count_and_match_one_matrix_at_a_time(rng, n, each_backend):
    """On either backend, a stack of n <= 2 is one counted kernel call with the
    kernel's rotations, and each slice's spectrum has the bytes of ``herm_eig``'s."""
    for ms in small_stacks(rng, n):
        r = run_stack(backend.jacobi_eigh_stack, linalg._hermitian_part(ms), 100 * n * n)[2]
        start = linalg.kernel_counts()
        values = linalg._stack_eigenvalues(ms)
        assert linalg.kernel_counts(start) == {n: (1, len(ms), int(r.sum()))}, len(ms)
        for i, m in enumerate(ms):
            assert values[i].tobytes() == linalg.herm_eig(m).eigenvalues.tobytes(), (len(ms), i)


def contract_stacks(rng, n):
    """``kernel_stack`` and stacks of four densities of rank 1, 2 and n, complex and
    real, with -0.0 in the imaginary parts of the diagonal and in a mirrored pair of
    entries; all as ``linalg._hermitian_part`` hands them to the kernel."""
    stacks = [kernel_stack(rng, n)]
    for rank in (1, 2, n):
        for real in (False, True):
            ms = np.array([random_density(rng, n, rank) for _ in range(4)])
            if real:
                ms = ms.real.astype(complex)
            ms.imag[:, np.arange(n), np.arange(n)] = -0.0
            if n > 1:
                ms[:, 0, n - 1] = ms[:, n - 1, 0] = complex(-0.0, -0.0)
            stacks.append(ms)
    return [linalg._hermitian_part(ms) for ms in stacks]


@pytest.mark.parametrize("n", STACK_SIZES)
@pytest.mark.parametrize("body", ["loop", "stacked", "compiled"])
def test_spectra_alone_are_bitwise_the_eigenvector_route(rng, n, body, request, monkeypatch, restore_backend):
    """A buffer of ``a`` alone (m = n) gives ``a`` the bytes, rotation counts and
    flags that ``[a; I]`` (m = 2n, what ``herm_eig`` hands the kernel) gives it, at
    every budget; at the full budget its sorted diagonal is ``herm_eig``'s eigenvalues.

    ``loop`` runs one slice per call (``_rotate``); ``stacked`` runs the whole
    stack with ``SMALL_STACK = 0``, which is ``_rotate_stack`` at n >= 3 and
    ``_unrolled`` at n <= 2; ``compiled`` is the C twin's stack entry.
    """
    if body == "compiled":
        request.getfixturevalue("compiled_kernel")
    backend.set_backend("compiled" if body == "compiled" else "python")
    kernel = backend._KERNELS[backend.backend_name()]
    if body == "stacked":
        monkeypatch.setattr(_jacobi_py, "SMALL_STACK", 0)

    def run(b, budget):
        if body != "loop":
            return kernel.jacobi_eigh_stack(b, budget)
        runs = [kernel.jacobi_eigh_stack(b[i : i + 1], budget) for i in range(len(b))]
        return [r for (r,), _ in runs], [c for _, (c,) in runs]

    for ms in contract_stacks(rng, n):
        for budget in (0, 1, 3, 100 * n * n):
            alone = ms.copy()
            rotations, converged = run(alone, budget)
            a, _, rotations0, converged0 = run_stack(run, ms, budget)
            assert list(rotations) == list(rotations0) and list(converged) == list(converged0), (len(ms), budget)
            assert alone.tobytes() == a.tobytes(), (len(ms), budget)
        assert all(converged)
        values = np.sort(np.diagonal(alone, axis1=1, axis2=2).real, axis=1, kind="stable")
        for i, m in enumerate(ms):
            assert values[i].tobytes() == linalg.herm_eig(m).eigenvalues.tobytes(), (len(ms), i)


def test_python_stack_entry_rejects_bad_buffers():
    """The Python twin works in place on one ``(k, m, n)`` buffer, m = n or 2n, so
    what the C rejects for its shape or layout it rejects too."""
    bad = {
        "non-contiguous row": np.zeros((2, 6, 6), dtype=complex)[..., ::2],
        "m below n": np.zeros((2, 3, 4), dtype=complex),
        "m neither n nor 2n": np.zeros((2, 5, 3), dtype=complex),
        "m = 3n": np.zeros((2, 9, 3), dtype=complex),
        "one axis too many": np.zeros((1, 2, 3, 3), dtype=complex),
        "a matrix, not a stack": np.eye(3, dtype=complex),
    }
    for b in bad.values():
        with pytest.raises(ValueError, match="m = n or 2n"):
            _jacobi_py.jacobi_eigh_stack(b, 10)


def test_only_herm_eig_hands_the_kernel_eigenvector_rows(monkeypatch):
    """Every buffer a spectrum's route hands the kernel is ``a`` alone, m = n: an
    eq16 campaign chunk, a sweep, a two-restart ``minimize_slack``, a state and an
    ``entropy_bundle``. ``herm_eig`` and ``relative_entropy``, which read
    eigenvectors, hand it ``[a; I]``, m = 2n."""
    import qir
    from qir.explore import CampaignConfig, _chunk_records, minimize_slack, monitoring_sweep

    handed = []
    kernel = backend.jacobi_eigh_stack

    def recording(b, max_rotations):
        handed.append(b.shape)
        return kernel(b, max_rotations)

    monkeypatch.setattr(backend, "jacobi_eigh_stack", recording)
    state = qir.random_mixed(3, 2, 6, 91)
    x, y = qir.random_basis(3, 92), qir.random_basis(3, 93)
    sigma = qir.max_mixed(3, 2)
    routes = {
        "campaign chunk": lambda: _chunk_records(
            CampaignConfig(((3, 2), (2, 3)), 4, 7, ("eq16",), ensemble="induced-mixed"), range(4)),
        "sweep": lambda: monitoring_sweep(x, y, state, np.linspace(0.0, 1.0, 21)),
        "minimize": lambda: minimize_slack("eq11", 2, 2, restarts=2, seed=7, max_evals=40),
        "state": lambda: qir.BipartiteState(3, 2, state.rho),
        "entropy_bundle": lambda: qir.entropy_bundle(x, state, y),
        "herm_eig": lambda: linalg.herm_eig(state.rho),
        "relative_entropy": lambda: qir.relative_entropy(state, sigma),
    }
    for name, route in routes.items():
        handed.clear()
        route()
        assert handed, name
        m_over_n = {m // n for _, m, n in handed if n}
        assert m_over_n == ({2} if name in ("herm_eig", "relative_entropy") else {1}), (name, handed)
