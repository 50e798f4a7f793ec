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

``jacobi_eigh_stack`` runs the same schedule on every slice of a
``(k, n, n)`` stack at once (cf. batched Jacobi, Golub & Van Loan,
*Matrix Computations*, 8.5). Each slice ends bit for bit as
``jacobi_eigh`` leaves it: the stacked arithmetic is the scalar
arithmetic, operation by operation, applied to the slices that rotate.
At a pivot where every slice rotates, it rotates views of the stack;
elsewhere, gathered copies of the slices that rotate.

Both norms, of the input and of the off-diagonal part, come from
``_norms``, in one call for a whole stack (``jacobi_eigh`` passes a stack
of one). They are ``np.linalg.norm``'s bits: that is ``sqrt(re.dot(re) +
im.dot(im))`` over the raveled entries, and ``np.vecdot`` of float64 rows
calls the same BLAS dot per row as ``ndarray.dot``.

Both kernels work on one buffer holding ``a`` stacked over ``v``, of shape
``(2n, n)`` (``(k, 2n, n)`` for a stack), so that one update of columns p
and q rotates ``a`` and ``v`` together; every exit copies the buffer back
into ``a`` and ``v``. The loop twin takes each column as a strided view
times a scalar, and rows p and q as one ``(2, 1) * (1, n)`` broadcast.

The bits rest on numpy's complex multiply loop, which may round by operand
layout, and on that BLAS dot. On x86-64 with AVX-512 and numpy 2.4, a
strided view times a scalar and that row broadcast give the bits of a
contiguous copy times a scalar, which is what a copy of each column and
row gives; a column broadcast ``(n, 1) * (2,)`` does not.
``tests/test_backends.py`` keeps the copy-per-column loop as its reference
and compares bytes, and compares ``_norms`` with ``np.linalg.norm``.
"""

import math

import numpy as np

OFF_NORM_FACTOR = 1e-14


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

    Same contract as the compiled kernel: ``a`` Hermitian, ``v`` the
    identity on entry; returns ``(rotations, converged)``.
    """
    n = a.shape[0]
    if a.shape != (n, n) or v.shape != (n, n):
        raise ValueError("kernel buffers must be square and of equal size")
    w = np.concatenate((a, v))
    thr = OFF_NORM_FACTOR * float(_norms(a[None])[0])
    rotations, converged = _rotate(w, n, thr, max_rotations)
    a[...] = w[:n]
    v[...] = w[n:]
    return rotations, converged


def _rotate(w: np.ndarray, n: int, thr: float, max_rotations: int) -> tuple[int, bool]:
    """``jacobi_eigh``'s sweeps on the ``(2n, n)`` buffer ``[a; v]``."""
    top = w[:n]
    skip = thr / n if n > 0 else 0.0
    rotations = 0
    # the rows' coefficient matrix [[c, conj(s)], [-s, c]] and its two columns
    m = np.empty((2, 2), dtype=np.complex128)
    m_p, m_q = m[:, :1], m[:, 1:]

    while True:
        if _converged(top[None].copy(), thr)[0]:
            return rotations, True
        if rotations >= max_rotations:
            return rotations, False
        for p in range(n - 1):
            if rotations >= max_rotations:
                break
            for q in range(p + 1, n):
                if rotations >= max_rotations:
                    break
                apq = top[p, q]
                # Python floats: the same IEEE arithmetic as numpy scalars, at
                # a fraction of the cost; s stays a numpy complex division
                beta = float(abs(apq))
                if beta <= skip:
                    continue
                app = top.item(p, p).real
                aqq = top.item(q, q).real
                theta = (aqq - app) / (2.0 * beta)
                sgn = 1.0 if theta >= 0.0 else -1.0
                t = -sgn / (sgn * theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c * (apq.conjugate() / beta)
                s_conj = np.conj(s)
                cz = complex(c)  # the value numpy casts c to, without the weak-scalar lookup

                # columns p and q of a and v at once; both right sides are
                # evaluated before either column is written
                colp = w[:, p]
                colq = w[:, q]
                w[:, p], w[:, q] = cz * colp + s * colq, -s_conj * colp + cz * colq
                # rows p and q of a as one (2, 1) * (1, n) broadcast
                m[0, 0] = m[1, 1] = c
                m[0, 1] = s_conj
                m[1, 0] = -s
                rows = top[p : q + 1 : q - p]
                rows[...] = m_p * rows[:1] + m_q * rows[1:]
                # pin the entries the rotation fixes exactly
                top[p, p] = app + t * beta
                top[q, q] = aqq - t * beta
                top[p, q] = 0.0
                top[q, p] = 0.0
                rotations += 1


def jacobi_eigh_stack(a: np.ndarray, v: np.ndarray, max_rotations: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize each Hermitian slice of ``a`` in place, accumulating in ``v``.

    ``a`` and ``v`` are C-contiguous ``(k, n, n)`` stacks, ``v`` identities
    on entry. Every slice follows ``jacobi_eigh``'s schedule, its own
    threshold, skip test and rotation budget; a rotation at pivot (p, q)
    acts on the slices whose entry there is above their skip level. Returns
    per-slice ``(rotations, converged)`` arrays.
    """
    if a.ndim != 3 or a.shape[1] != a.shape[2] or v.shape != a.shape:
        raise ValueError("kernel buffers must be stacks of square matrices of equal size")
    n = a.shape[1]
    w = np.concatenate((a, v), axis=1)
    thr = OFF_NORM_FACTOR * _norms(a)
    rotations, converged = _rotate_stack(w, n, thr, max_rotations)
    a[...] = w[:, :n]
    v[...] = w[:, n:]
    return rotations, converged


def _rotate_stack(w: np.ndarray, n: int, thr: np.ndarray, max_rotations: int) -> tuple[np.ndarray, np.ndarray]:
    """``jacobi_eigh_stack``'s sweeps on the ``(k, 2n, n)`` buffer ``[a; v]``."""
    k = w.shape[0]
    top = w[:, :n]
    rotations = np.zeros(k, dtype=np.int64)
    converged = np.zeros(k, dtype=bool)
    skip = thr / n if n > 0 else thr
    live = np.arange(k)

    while live.size:
        done = _converged(top[live], thr[live])  # a gathered copy, free to overwrite
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
                apq = top[rows, p, q]
                beta = np.hypot(apq.real, apq.imag)  # what abs() of a complex scalar gives
                turn = beta > skip[rows]
                if not turn.all():
                    rows, apq, beta = rows[turn], apq[turn], beta[turn]
                if not rows.size:
                    continue
                # every slice rotates: basic slices give views, not gathers and scatters
                at = slice(None) if rows.size == k else rows
                app = top[at, p, p].real
                aqq = top[at, q, q].real
                theta = (aqq - app) / (2.0 * beta)
                sgn = np.where(theta >= 0.0, 1.0, -1.0)
                t = -sgn / (sgn * theta + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(1.0 + t * t)
                # the scalar expression as complex ufuncs: the same bits, signed zeros too
                s = (t * c) * (np.conj(apq) / beta)
                c, s = c[:, None], s[:, None]
                s_conj = np.conj(s)
                # the diagonal the rotation pins, before app and aqq (views, maybe) move
                pinned_p, pinned_q = app + t * beta, aqq - t * beta

                # columns p and q of a and v at once; as with views in the loop twin,
                # both right sides are evaluated before either column is written
                colp = w[at, :, p]
                colq = w[at, :, q]
                w[at, :, p], w[at, :, q] = c * colp + s * colq, -s_conj * colp + c * colq
                rowp = top[at, p]
                rowq = top[at, q]
                top[at, p], top[at, q] = c * rowp + s_conj * rowq, -s * rowp + c * rowq
                top[at, p, p] = pinned_p
                top[at, q, q] = pinned_q
                top[at, p, q] = 0.0
                top[at, q, p] = 0.0
                rotations[at] += 1

    return rotations, converged
