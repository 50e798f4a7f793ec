"""Cyclic Jacobi diagonalization of complex Hermitian matrices (fallback).

Pure-Python twin of the compiled ``qir._jacobi`` extension. One sweep
visits every off-diagonal pair (p, q) with p < q in row order and applies
a unitary plane rotation chosen to zero that entry:

    R[p,p] = c, R[p,q] = -conj(s), R[q,p] = s, R[q,q] = c,

with ``c`` real and ``s = t*c*exp(-i*arg(a[p,q]))`` where ``t`` is the
smaller root of ``t^2 - 2*theta*t - 1 = 0``, ``theta`` being the scaled
diagonal gap. Sweeps repeat until the off-diagonal Frobenius norm falls
below ``OFF_NORM_FACTOR`` times the Frobenius norm of the input, or the
rotation budget runs out.

``jacobi_eigh_stack`` diagonalizes a ``(k, n, n)`` stack, and
``jacobi_eigh`` is its one-slice case. ``_rotate_stack`` runs the schedule
on every slice at once (cf. batched Jacobi, Golub & Van Loan, *Matrix
Computations*, 8.5): the scalar arithmetic, operation by operation, on the
slices that rotate; views of the stack where every slice rotates, gathered
copies elsewhere. It pays per numpy call and breaks even with a loop over
the slices at three to five, so a stack of at most ``SMALL_STACK`` slices
runs ``_rotate`` on one slice at a time (README, "Backends"). Both give a
slice the same bytes and rotation count. A slice of n <= 2 makes at most
one rotation, so a stack of two or more of them runs ``_unrolled``, the
schedule's one step over the whole stack, with the same bytes. The pivot
arithmetic of ``_rotate_stack`` and ``_unrolled`` is ``_pivot``'s.

Both norms, of the input and of the off-diagonal part, come from
``_norms``, in one call for a whole stack. They are ``np.linalg.norm``'s
bits: that is ``sqrt(re.dot(re) + im.dot(im))`` over the raveled entries,
and ``np.vecdot`` of float64 rows calls the same BLAS dot per row as
``ndarray.dot``.

Both work on one column-major buffer ``b = [a^T | v^T]``, ``(k, n, 2n)``:
``b[i, j]`` holds column j of slice i of ``a`` and then of ``v``. A
rotation updates columns p and q of ``a`` and ``v`` together, as rows p
and q of ``b[i]`` in one ``(2, 1) * (1, 2n)`` broadcast with the
coefficients ``[[c, s], [-conj(s), c]]``; it then copies rows p and q of
``a`` from the conjugated columns, as the compiled twin does, and pins
the four pivot entries. Every exit copies the buffer back into ``a`` and
``v``.

So ``a`` must be exactly Hermitian on entry: its bytes those of
``a.conj().T`` up to the sign of a zero. Then the copied rows are what
rotating the rows would give, ``conj(c a[j,p] + s a[j,q]) = c a[p,j] +
conj(s) a[q,j]`` in IEEE arithmetic, up to the sign of a zero: the
rotation counts, the diagonal and ``v`` get the bytes a row update gives,
and ``a`` its values. qir hands a kernel only what one builder makes,
``linalg._hermitian_part``, ``(m + m^dag) / 2``, which is exactly
Hermitian: ``linalg.herm_eig`` and ``linalg._stack_eigenvalues`` build it
from their input as a new array, so the kernel, which overwrites ``a``,
never overwrites a caller's array.

The bits rest on numpy's complex multiply loop, which may round by operand
layout, and on that BLAS dot. On x86-64 with AVX-512 and numpy 2.4, the
row broadcast gives the bits of a contiguous copy of each column times a
scalar; a column broadcast ``(n, 1) * (2,)`` does not. The norms are
taken on a row-major copy of ``a``, whose raveled order sets the dot's
summation order. ``tests/test_backends.py`` keeps the copy-per-column
loop as its reference and compares bytes, compares the copied rows with
rotated rows on symmetrized input, and compares ``_norms`` with
``np.linalg.norm``.
"""

import math

import numpy as np

OFF_NORM_FACTOR = 1e-14
SMALL_STACK = 3  # stacks of up to this many slices run _rotate slice by slice


def _norms(a: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each slice of a ``(k, n, n)`` stack, bit for bit.

    ``np.linalg.norm`` of a complex matrix is ``sqrt(x.real.dot(x.real) +
    x.imag.dot(x.imag))`` over its raveled entries; ``np.vecdot`` of float64
    rows calls the same BLAS dot per row.
    """
    flat = a.reshape(a.shape[0], a.shape[1] * a.shape[2])
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _converged(off: np.ndarray, thr) -> np.ndarray:
    """Per slice of the C-contiguous stack ``off``, whether its off-diagonal norm is at most ``thr``.

    The diagonals of ``off`` are zeroed in place.
    """
    k, n = off.shape[0], off.shape[1]
    off.reshape(k, n * n)[:, :: n + 1] = 0.0
    return _norms(off) <= thr


def jacobi_eigh(a: np.ndarray, v: np.ndarray, max_rotations: int) -> tuple[int, bool]:
    """Diagonalize Hermitian ``a`` in place, accumulating the unitary in ``v``.

    Same contract as the compiled kernel: ``a`` exactly Hermitian (its bytes
    those of ``a.conj().T`` up to the sign of a zero) and ``v`` the identity
    on entry; returns ``(rotations, converged)``: ``jacobi_eigh_stack`` on one slice.
    """
    rotations, converged = jacobi_eigh_stack(a[None], v[None], max_rotations)
    return int(rotations[0]), bool(converged[0])


def jacobi_eigh_stack(a: np.ndarray, v: np.ndarray, max_rotations: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize each Hermitian slice of ``a`` in place, accumulating in ``v``.

    ``a`` and ``v`` are C-contiguous ``(k, n, n)`` stacks, each slice of ``a``
    exactly Hermitian, ``v`` identities on entry. Every slice follows the
    schedule with its own threshold, skip test and rotation budget: slice
    by slice (``_rotate``) up to ``SMALL_STACK`` slices and all at once
    (``_rotate_stack``) above, but unrolled (``_unrolled``) on two or more
    slices of n <= 2. Returns per-slice ``(rotations, converged)`` arrays.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2] or v.shape != a.shape:
        raise ValueError("kernel buffers must be stacks of square matrices of equal size")
    k, n = a.shape[0], a.shape[1]
    if n <= 2 and k > 1:
        return _unrolled(a, v, max_rotations)
    b = np.concatenate((a.transpose(0, 2, 1), v.transpose(0, 2, 1)), axis=2)
    thr = OFF_NORM_FACTOR * _norms(a)
    if k <= SMALL_STACK:
        rotations, converged = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=bool)
        for i in range(k):
            # a Python float threshold keeps the loop's compares on Python floats
            rotations[i], converged[i] = _rotate(b[i], n, float(thr[i]), max_rotations)
    else:
        rotations, converged = _rotate_stack(b, n, thr, max_rotations)
    a[...] = b[:, :, :n].transpose(0, 2, 1)
    v[...] = b[:, :, n:].transpose(0, 2, 1)
    return rotations, converged


def _pivot(apq: np.ndarray, beta: np.ndarray, app: np.ndarray, aqq: np.ndarray) -> tuple:
    """The 2 x 2 symmetric Schur step at the pivots ``apq`` of magnitude ``beta``, one per slice.

    The loop twin's scalar arithmetic as ufuncs, the same bits, signed
    zeros too, with ``app`` and ``aqq`` the diagonal at the pivot. Returns
    the diagonal the rotation pins and the ``(k, 2, 2)`` coefficients, per
    slice the loop twin's columns ``[c, -conj(s)]`` and ``[s, c]``.
    """
    theta = (aqq - app) / (2.0 * beta)
    sgn = np.where(theta >= 0.0, 1.0, -1.0)  # 1.0 at theta = -0.0 too
    t = -sgn / (sgn * theta + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(1.0 + t * t)
    s = (t * c) * (apq.conjugate() / beta)
    m = np.empty((len(beta), 2, 2), dtype=np.complex128)
    m[:, 0, 0] = m[:, 1, 1] = c
    m[:, 0, 1] = s
    m[:, 1, 0] = -s.conjugate()
    return app + t * beta, aqq - t * beta, m


def _unrolled(a: np.ndarray, v: np.ndarray, max_rotations: int) -> tuple[np.ndarray, np.ndarray]:
    """The schedule on a stack of n <= 2, unrolled: the sweeps' bytes without their buffers.

    A slice of n <= 1 is diagonal: it makes no rotation. A slice of n = 2
    makes at most one, after which its pinned off-diagonal is zero and the
    next convergence test passes. The threshold and the first test are
    ``_norms`` and ``_converged`` on the stack, the rotation ``_pivot``. The
    sweeps write every entry of a rotated 2 x 2 ``a`` from the pinned
    values, so only ``v`` turns, by their ``(2, 1) * (1, 2)`` broadcast of
    its columns. On a stack of one, ``_rotate``'s Python floats cost less
    than these ufuncs, so ``jacobi_eigh_stack`` runs that instead.
    """
    k, n = a.shape[0], a.shape[1]
    rotations = np.zeros(k, dtype=np.int64)
    if n < 2:
        return rotations, np.ones(k, dtype=bool)
    thr = OFF_NORM_FACTOR * _norms(a)
    converged = _converged(a.copy(), thr)
    apq = a[:, 0, 1]
    beta = np.hypot(apq.real, apq.imag)  # what abs() of a complex scalar gives
    turn = (beta > thr / n) & ~converged
    count = np.count_nonzero(turn) if max_rotations > 0 else 0
    if not count:
        return rotations, converged
    # every slice rotates: basic slices give views, not gathers and scatters
    sel = slice(None) if count == k else np.flatnonzero(turn)
    pinned_p, pinned_q, m = _pivot(apq[sel], beta[sel], a[sel, 0, 0].real, a[sel, 1, 1].real)
    vt = v[sel].transpose(0, 2, 1)  # the columns of v as rows
    v[sel] = (m[:, :, :1] * vt[:, :1] + m[:, :, 1:] * vt[:, 1:]).transpose(0, 2, 1)
    a[sel] = 0.0
    a[sel, 0, 0] = pinned_p
    a[sel, 1, 1] = pinned_q
    rotations[sel] = 1
    converged[sel] = True
    return rotations, converged


def _rotate(b: np.ndarray, n: int, thr: float, max_rotations: int) -> tuple[int, bool]:
    """The sweeps of one slice, on its ``(n, 2n)`` buffer ``[a^T | v^T]``."""
    at = b[:, :n]  # a transposed: at[j, i] is a[i, j]
    skip = thr / n if n > 0 else 0.0
    rotations = 0
    # the columns' coefficient matrix [[c, s], [-conj(s), c]] and its two columns
    m = np.empty((2, 2), dtype=np.complex128)
    m_p, m_q = m[:, :1], m[:, 1:]

    while True:
        # the norms read a row-major copy of a
        if _converged(at.T[None].copy(), thr)[0]:
            return rotations, True
        if rotations >= max_rotations:
            return rotations, False
        for p in range(n - 1):
            if rotations >= max_rotations:
                break
            for q in range(p + 1, n):
                if rotations >= max_rotations:
                    break
                apq = at[q, p]
                # Python floats: the same IEEE arithmetic as numpy scalars, at
                # a fraction of the cost; s stays a numpy complex division
                beta = float(abs(apq))
                if beta <= skip:
                    continue
                app = at.item(p, p).real
                aqq = at.item(q, q).real
                theta = (aqq - app) / (2.0 * beta)
                sgn = 1.0 if theta >= 0.0 else -1.0
                t = -sgn / (sgn * theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c * (apq.conjugate() / beta)

                # columns p and q of a and v, rows p and q of b, as one
                # (2, 1) * (1, 2n) broadcast
                m[0, 0] = m[1, 1] = c
                m[0, 1] = s
                m[1, 0] = -np.conj(s)
                pair = b[p : q + 1 : q - p]
                cols = m_p * pair[:1] + m_q * pair[1:]
                pair[...] = cols
                # rows p and q of a are the conjugated columns
                np.conjugate(cols[:, :n].T, out=at[:, p : q + 1 : q - p])
                # pin the entries the rotation fixes exactly
                at[p, p] = app + t * beta
                at[q, q] = aqq - t * beta
                at[q, p] = 0.0
                at[p, q] = 0.0
                rotations += 1


def _rotate_stack(b: np.ndarray, n: int, thr: np.ndarray, max_rotations: int) -> tuple[np.ndarray, np.ndarray]:
    """The sweeps of every slice at once, on the ``(k, n, 2n)`` buffer ``[a^T | v^T]``."""
    k = b.shape[0]
    at = b[:, :, :n]  # each slice of a transposed
    rotations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    skip = thr / n if n > 0 else thr
    live = np.arange(k)

    while live.size:
        # the norms read a row-major copy of each live slice of a, free to overwrite
        done = _converged(np.ascontiguousarray(at.transpose(0, 2, 1)[live]), thr[live])
        converged[live[done]] = True
        live = live[~done]
        live = live[rotations[live] < max_rotations]
        if not live.size:
            break
        # a slice that cannot run out of budget in this sweep needs no check per pivot
        budgeted = bool((rotations[live] + n * (n - 1) // 2 > max_rotations).any())
        for p in range(n - 1):
            for q in range(p + 1, n):
                rows = live[rotations[live] < max_rotations] if budgeted else live
                apq = at[rows, q, p]
                beta = np.hypot(apq.real, apq.imag)  # what abs() of a complex scalar gives
                turn = beta > skip[rows]
                if not turn.all():
                    rows, apq, beta = rows[turn], apq[turn], beta[turn]
                if not rows.size:
                    continue
                # every slice rotates: basic slices give views, not gathers and scatters
                sel = slice(None) if rows.size == k else rows
                # _pivot reads the diagonal, maybe a view, before the writes below move it
                pinned_p, pinned_q, m = _pivot(apq, beta, at[sel, p, p].real, at[sel, q, q].real)

                # columns p and q of a and v as the loop twin's (2, 1) * (1, 2n)
                # broadcast per slice; computed before any write, as views may alias
                pair = b[sel, p : q + 1 : q - p]
                cols = m[:, :, :1] * pair[:, :1] + m[:, :, 1:] * pair[:, 1:]
                b[sel, p : q + 1 : q - p] = cols
                # rows p and q of a are the conjugated columns
                at[sel, :, p : q + 1 : q - p] = np.conjugate(cols[:, :, :n]).transpose(0, 2, 1)
                at[sel, p, p] = pinned_p
                at[sel, q, q] = pinned_q
                at[sel, q, p] = 0.0
                at[sel, p, q] = 0.0
                rotations[sel] += 1

    return rotations, converged
