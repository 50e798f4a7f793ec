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

``jacobi_eigh_stack`` diagonalizes a stack of slices ``[a; v]`` in one
``(k, m, n)`` buffer: the m - n rows of ``v`` turn with the columns of
``a``, so m = n gives spectra only and m = 2n, with ``v`` the identity,
eigenvectors too. ``jacobi_eigh`` is its one-slice case. ``_rotate_stack``
runs the schedule on every slice at once (cf. batched Jacobi, Golub & Van
Loan, *Matrix Computations*, 8.5), on a slice-minor copy of the live
slices: a slice leaves the copy, written back, when it converges or runs
out of budget. It pays per numpy call and breaks even with a loop over
the slices at five to six, so a stack of at most ``SMALL_STACK`` slices
runs ``_rotate`` on one slice at a time (README, "Backends"). Both give a
slice the same bytes and rotation count. A slice of n <= 2 makes at most
one rotation, so a stack of two or more of them runs ``_unrolled``, the
schedule's one step over the whole stack, with the same bytes. The pivot
arithmetic of ``_rotate_stack`` and ``_unrolled`` is ``_pivot``'s, on
ufuncs; ``_rotate``'s is ``_scalar_pivot``, the same bits in Python
floats, which write numpy's complex-scalar formulas out operation by
operation. ``_rotate`` reads and pins the pivot entries in one raveled
view of its buffer, builds a pivot's views of it once per call and
writes its products into work buffers of the call.

The norms, of the input and of the off-diagonal part, are
``np.linalg.norm``'s bits: ``sqrt(re.dot(re) + im.dot(im))`` over the
raveled entries. ``_norms`` takes them for a whole stack, as ``np.vecdot``
of float64 rows calls the same BLAS dot per row as ``ndarray.dot``;
``_off_norm`` takes the loop body's test of one slice in Python floats.

The bodies work on the buffer's transpose, ``(k, n, m)``: row j of a
slice holds column j of ``a`` and then of the rows below it, ``v``, and
is column-major in memory. A rotation updates columns p and q of ``a``
and ``v`` together, with the coefficients ``[[c, s], [-conj(s), c]]``,
as the sum of each coefficient times a column; it then copies rows p and
q of ``a`` from the conjugated columns, as the compiled twin does, and
pins the four pivot entries. ``_rotate`` turns rows p and q of its slice
in one ``(2, 2, 1) * (2, 1, m)`` broadcast: each coefficient times a
contiguous row. ``_rotate_stack`` makes every product of its k' live
slices in one ``(2, 2, 1, k') * (2, m, k')`` broadcast on its slice-minor
copy, the coefficients first; where only some of them rotate at a pivot,
it turns gathered copies of those.

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
layout and order, and on that BLAS dot. On x86-64 with AVX-512 and numpy
2.4, a coefficient times a contiguous row and a product of coefficient
and data vectors that are both contiguous over the slices, coefficient
first, give the same bits; a column broadcast ``(n, 1) * (2,)`` does not,
nor does the product with the data first. The norms are taken on a
row-major copy of ``a``, whose raveled order sets the dot's summation
order. ``tests/test_backends.py`` keeps the copy-per-column loop as its
reference and compares bytes, compares the copied rows with rotated rows
on symmetrized input, compares the vector products with the scalar ones,
compares ``_norms`` and ``_off_norm`` with ``np.linalg.norm``, and
compares ``_scalar_pivot`` with numpy's complex scalars and with
``_pivot``.
"""

import functools
import math

import numpy as np

OFF_NORM_FACTOR = 1e-14
SMALL_STACK = 5  # stacks of up to this many slices run _rotate slice by slice


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


def _off_norm(a: np.ndarray) -> float:
    """The off-diagonal norm of one C-contiguous slice, ``np.linalg.norm``'s bits, as a Python float.

    A one-slice ``_norms`` of a copy with its diagonal zeroed, for the loop
    body, whose tests pay per numpy call: the dot products are the same.
    """
    off = a.copy().reshape(-1)
    off[:: len(a) + 1] = 0.0
    re, im = off.real, off.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def jacobi_eigh(a: np.ndarray, v: np.ndarray, max_rotations: int) -> tuple[int, bool]:
    """Diagonalize Hermitian ``a`` in place, accumulating the unitary in ``v``.

    Same contract as the compiled kernel: ``a`` exactly Hermitian (its bytes
    those of ``a.conj().T`` up to the sign of a zero) and ``v`` the identity
    on entry; returns ``(rotations, converged)``: ``jacobi_eigh_stack`` on the
    one buffer ``[a; v]``.
    """
    b = np.concatenate((a, v))[None]
    rotations, converged = jacobi_eigh_stack(b, max_rotations)
    a[...], v[...] = b[0, : len(a)], b[0, len(a) :]
    return int(rotations[0]), bool(converged[0])


def jacobi_eigh_stack(b: np.ndarray, max_rotations: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize each Hermitian slice of the buffer ``b`` in place.

    ``b`` is a C-contiguous complex128 ``(k, m, n)`` stack: the first n rows
    of each slice are an exactly Hermitian ``a``, and the m - n rows below
    it, none or n of them, turn with its columns (``v``, the identity on
    entry to get eigenvectors). Every slice follows the schedule with its
    own threshold, skip test and rotation budget: slice by slice
    (``_rotate``) up to ``SMALL_STACK`` slices and all at once
    (``_rotate_stack``) above, but unrolled (``_unrolled``) on two or more
    slices of n <= 2. Returns per-slice ``(rotations, converged)`` arrays.
    """
    if b.ndim != 3 or b.shape[1] not in (b.shape[2], 2 * b.shape[2]) or not b.flags.c_contiguous:
        raise ValueError("the kernel buffer must be a C-contiguous (k, m, n) stack with m = n or 2n")
    k, n = b.shape[0], b.shape[2]
    if n <= 2 and k > 1:
        return _unrolled(b, max_rotations)
    bt = b.transpose(0, 2, 1)  # so each slice of bt is column-major
    thr = OFF_NORM_FACTOR * _norms(b[:, :n])
    if k > SMALL_STACK:
        return _rotate_stack(bt, n, thr, max_rotations)
    rotations, converged = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=bool)
    for i in range(k):
        # a Python float threshold keeps the loop's compares on Python floats
        rotations[i], converged[i] = _rotate(bt[i], n, float(thr[i]), max_rotations)
    return rotations, converged


def _pivot(apq: np.ndarray, beta: np.ndarray, app: np.ndarray, aqq: np.ndarray) -> tuple:
    """The 2 x 2 symmetric Schur step at the pivots ``apq`` of magnitude ``beta``, one per slice.

    The loop twin's scalar arithmetic as ufuncs, the same bits, signed
    zeros too, with ``app`` and ``aqq`` the diagonal at the pivot. Returns
    the ``(2, k)`` diagonal the rotation pins and the ``(2, 2, k)`` complex
    coefficients, per slice the loop twin's columns ``[c, -conj(s)]`` and
    ``[s, c]``. The loop twin's ``t = -sgn / (sgn * theta + root)`` is
    ``1 / (|theta| + root)`` with the sign of ``-(theta + 0.0)``: negative
    where ``theta >= 0``, at ``theta = -0.0`` too.
    """
    theta = (aqq - app) / (beta + beta)
    t = np.copysign(np.reciprocal(np.abs(theta) + np.sqrt(theta * theta + 1.0)), -(theta + 0.0))
    c = np.reciprocal(np.sqrt(t * t + 1.0))
    coef = np.empty((2, 2, len(beta)), dtype=np.complex128)
    coef.reshape(4, -1)[::3] = c  # coef[0, 0] and coef[1, 1] in one write
    s, minus_conj_s = coef[0, 1], coef[1, 0]
    np.multiply(t * c, apq.conjugate() / beta, out=s)
    np.negative(s.real, out=minus_conj_s.real)
    minus_conj_s.imag = s.imag
    tb = t * beta
    pinned = np.empty((2, len(beta)))
    np.add(app, tb, out=pinned[0])
    np.subtract(aqq, tb, out=pinned[1])
    return pinned, coef


def _unrolled(b: np.ndarray, max_rotations: int) -> tuple[np.ndarray, np.ndarray]:
    """The schedule on a stack of n <= 2, unrolled: the sweeps' bytes without their buffers.

    A slice of n <= 1 is diagonal: it makes no rotation. A slice of n = 2
    makes at most one, after which its pinned off-diagonal is zero and the
    next convergence test passes. The threshold and the first test are
    ``_norms`` and ``_converged`` on the stack, the rotation ``_pivot``. The
    sweeps write every entry of a rotated 2 x 2 ``a`` from the pinned
    values, so only the rows below ``a`` turn, by their ``(2, 1) * (1, 2)``
    broadcast of its columns. On a stack of one, ``_rotate``'s Python floats
    cost less than these ufuncs, so ``jacobi_eigh_stack`` runs that instead.
    """
    k, n = b.shape[0], b.shape[2]
    a, v = b[:, :n], b[:, n:]
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
    pinned, coef = _pivot(apq[sel], beta[sel], a[sel, 0, 0].real, a[sel, 1, 1].real)
    if v.size:  # none on a spectrum's call, where skipping the empty turn saves 3-7 us
        vt = v[sel].transpose(0, 2, 1)  # the columns of v as rows
        m = coef.transpose(2, 0, 1)
        v[sel] = (m[:, :, :1] * vt[:, :1] + m[:, :, 1:] * vt[:, 1:]).transpose(0, 2, 1)
    a[sel] = 0.0
    a[sel, 0, 0] = pinned[0]
    a[sel, 1, 1] = pinned[1]
    rotations[sel] = 1
    converged[sel] = True
    return rotations, converged


def _scalar_pivot(apq: complex, beta: float, app: float, aqq: float) -> tuple:
    """``_pivot`` at one pivot in Python floats, the same bits, signed zeros too.

    Returns the pinned diagonal, ``c``, ``s`` and ``-conj(s)``. ``s`` repeats
    numpy's complex-scalar ``t * c * (apq.conjugate() / beta)`` operation by
    operation: numpy divides by ``beta + 0j`` with Smith's algorithm, as
    ``rat = 0 / beta``, ``scl = 1 / (beta + 0 * rat)`` and a multiply by
    ``scl``, then multiplies ``t * c + 0j`` by the quotient. Python's own
    complex division divides by ``beta`` instead and gives other bits.
    """
    theta = (aqq - app) / (2.0 * beta)
    sgn = 1.0 if theta >= 0.0 else -1.0  # 1.0 at theta = -0.0 too
    t = -sgn / (sgn * theta + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(1.0 + t * t)
    re, im = apq.real, -apq.imag  # apq.conjugate()
    rat = 0.0 / beta
    scl = 1.0 / (beta + 0.0 * rat)
    re, im = (re + im * rat) * scl, (im - re * rat) * scl
    tc = t * c
    s_re, s_im = tc * re - 0.0 * im, tc * im + 0.0 * re
    return app + t * beta, aqq - t * beta, c, complex(s_re, s_im), complex(-s_re, s_im)


@functools.cache
def _pivots(n: int) -> tuple:
    """One sweep's pivots of an n x n slice in row order: ``(k, p, q)`` and the
    offsets of ``a[p, q]``, ``a[p, p]``, ``a[q, q]`` and ``a[q, p]`` in ``[a; v]`` raveled."""
    pairs = [(p, q) for p in range(n - 1) for q in range(p + 1, n)]
    return tuple((k, p, q, p * n + q, p * (n + 1), q * (n + 1), q * n + p) for k, (p, q) in enumerate(pairs))


def _rotate(b: np.ndarray, n: int, thr: float, max_rotations: int) -> tuple[int, bool]:
    """The sweeps of one slice, on its column-major ``(n, m)`` buffer ``[a^T | v^T]``.

    ``b.T`` is ``[a; v]``, C-contiguous, so that its raveled view is a view:
    the pivot entries are read and pinned there, at the offsets of
    ``_pivots``. A pivot's views of ``b`` are built at its first rotation and
    kept for the call.
    """
    av = b.T
    a, flat = av[:n], av.reshape(-1)
    skip = thr / n if n > 0 else 0.0
    rotations = 0
    pivots = _pivots(n)
    views = [None] * len(pivots)
    # the coefficient columns [c, -conj(s)] and [s, c], as (2, 2, 1), and their
    # products with rows p and q of b; the sum of the two is the rotated rows
    coef = np.empty(4, dtype=np.complex128)
    cols = coef.reshape(2, 2, 1)
    products = np.empty((2, 2, b.shape[1]), dtype=np.complex128)
    rotated, product_q = products
    rotated_a = rotated[:, :n]
    multiply, add, conjugate = np.multiply, np.add, np.conjugate

    while True:
        if _off_norm(a) <= thr:
            return rotations, True
        if rotations >= max_rotations:
            return rotations, False
        for k, p, q, pq, pp, qq, qp in pivots:
            if rotations >= max_rotations:
                break
            apq = flat.item(pq)
            beta = abs(apq)  # hypot, as abs() of a numpy complex scalar
            if beta <= skip:
                continue
            pinned_p, pinned_q, c, s, minus_conj_s = _scalar_pivot(apq, beta, flat.item(pp).real, flat.item(qq).real)
            coef[0] = coef[3] = c
            coef[1] = minus_conj_s
            coef[2] = s
            view = views[k]
            if view is None:
                pair = b[p : q + 1 : q - p]
                view = views[k] = (pair, pair[:, None], a[p : q + 1 : q - p])
            pair, rows, a_rows = view

            # columns p and q of a and v, rows p and q of b: both products in one
            # (2, 2, 1) * (2, 1, m) broadcast, each a (2, 1) * (1, m) one
            multiply(cols, rows, products)
            add(rotated, product_q, rotated)
            pair[...] = rotated
            # rows p and q of a are the conjugated columns
            conjugate(rotated_a, a_rows)
            # pin the entries the rotation fixes exactly
            flat[pp] = pinned_p
            flat[qq] = pinned_q
            flat[pq] = 0.0
            flat[qp] = 0.0
            rotations += 1


def _rotate_stack(b: np.ndarray, n: int, thr: np.ndarray, max_rotations: int) -> tuple[np.ndarray, np.ndarray]:
    """The sweeps of every slice at once, on the ``(k, n, m)`` buffer ``[a^T | v^T]``.

    They run on ``y``, a slice-minor ``(n, m, k)`` copy of the live slices:
    ``y[j]`` is column j of ``[a; v]`` of every slice, so each entry is a
    contiguous row over the slices. A slice leaves ``y``, and is written
    back to ``b``, at the first test it passes or once its budget is spent.
    """
    k, m = b.shape[0], b.shape[2]
    rotations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    skip = thr / n if n > 0 else thr
    pivots = _pivots(n)
    live, rot = np.arange(k), rotations.copy()  # the live slices and their counts
    y, views = b.transpose(1, 2, 0), None  # a view of b until the first test, then a copy

    while True:
        # the norms read a row-major copy of each live slice of a, free to overwrite
        done = _converged(y[:, :n].transpose(2, 1, 0).copy(), thr)
        out = done | (rot >= max_rotations)
        if views is None or out.any():
            gone = live[out]
            b[gone] = y[:, :, out].transpose(2, 0, 1)
            rotations[gone], converged[gone] = rot[out], done[out]
            if out.all():
                return rotations, converged
            keep = ~out
            live, rot, thr, skip = live[keep], rot[keep], thr[keep], skip[keep]
            y = np.compress(keep, y, axis=2)
            flat = y.reshape(n * m, len(live))
            # per pivot: a[p, q], columns p and q of a and v, rows p and q of a,
            # a[p, p] and a[q, q], and a[q, p] and a[p, q], each over the slices
            views = [(flat[q * m + p], y[p : q + 1 : q - p], y[:n, p : q + 1 : q - p],
                      flat[p * (m + 1) : q * (m + 1) + 1 : (q - p) * (m + 1)],
                      flat[p * m + q : q * m + p + 1 : (q - p) * (m - 1)]) for _, p, q, *_ in pivots]
            # coef[i, j] * column j, summed over j, is the rotated column i
            products = np.empty((2, 2, m, len(live)), dtype=np.complex128)
        # a slice that cannot run out of budget in this sweep needs no check per pivot
        budgeted = bool(rot.max() + len(pivots) > max_rotations)
        whole = 0  # rotations of every live slice not yet added to rot
        for apq, cols, a_rows, diag, corner in views:
            beta = np.hypot(apq.real, apq.imag)  # what abs() of a complex scalar gives
            turn = beta > skip
            if budgeted:
                turn &= rot < max_rotations
            count = np.count_nonzero(turn)
            if not count:
                continue
            if count == len(live):
                pinned, coef = _pivot(apq, beta, diag[0].real, diag[1].real)
                np.multiply(coef[:, :, None], cols, out=products)
                np.add(products[:, 0], products[:, 1], out=cols)
                # rows p and q of a are the conjugated columns
                np.conjugate(cols[:, :n].transpose(1, 0, 2), out=a_rows)
                diag[...] = pinned
                corner[...] = 0.0
                if budgeted:
                    rot += 1
                else:
                    whole += 1
                continue
            # some slices skip this pivot: turn gathered copies of the others
            idx = np.flatnonzero(turn)
            d = diag[:, idx].real
            pinned, coef = _pivot(apq[idx], beta[idx], d[0], d[1])
            rotated = coef[:, :, None] * np.take(cols, idx, axis=2)
            rotated = rotated[:, 0] + rotated[:, 1]
            cols[:, :, idx] = rotated
            a_rows[:, :, idx] = np.conjugate(rotated[:, :n]).transpose(1, 0, 2)
            diag[:, idx] = pinned
            corner[:, idx] = 0.0
            rot[idx] += 1
        rot += whole
