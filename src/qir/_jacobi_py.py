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

Both kernels work on one buffer holding ``a`` stacked over ``v``, of shape
``(2n, n)`` (``(k, 2n, n)`` for a stack), so that one update of columns p
and q rotates ``a`` and ``v`` together; every exit copies the buffer back
into ``a`` and ``v``. The loop twin takes each column as a strided view
times a scalar, and rows p and q as one ``(2, 1) * (1, n)`` broadcast.

The bits rest on numpy's complex multiply loop, which may round by operand
layout. On x86-64 with AVX-512 and numpy 2.4, a strided view times a
scalar and that row broadcast give the bits of a contiguous copy times a
scalar, which is what a copy of each column and row gives; a column
broadcast ``(n, 1) * (2,)`` does not. ``tests/test_backends.py`` keeps the
copy-per-column loop as its reference and compares bytes.
"""

import math

import numpy as np

OFF_NORM_FACTOR = 1e-14


def _offdiag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigh(a: np.ndarray, v: np.ndarray, max_rotations: int) -> tuple[int, bool]:
    """Diagonalize Hermitian ``a`` in place, accumulating the unitary in ``v``.

    Same contract as the compiled kernel: ``a`` Hermitian, ``v`` the
    identity on entry; returns ``(rotations, converged)``.
    """
    n = a.shape[0]
    if a.shape != (n, n) or v.shape != (n, n):
        raise ValueError("kernel buffers must be square and of equal size")
    w = np.concatenate((a, v))
    rotations, converged = _rotate(w, n, OFF_NORM_FACTOR * float(np.linalg.norm(a)), max_rotations)
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
        if _offdiag_norm(top) <= thr:
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


# A vectorized off-diagonal norm may differ from np.linalg.norm in its last
# bits; within this relative distance of the threshold the exact one decides.
_NEAR_THRESHOLD = 1e-8


def _converged(a: np.ndarray, thr: np.ndarray) -> np.ndarray:
    """Per slice of ``a``, whether ``_offdiag_norm`` is at most ``thr``."""
    off = a.copy()
    idx = np.arange(a.shape[1])
    off[:, idx, idx] = 0.0
    norms = np.sqrt((off.real**2 + off.imag**2).sum(axis=(1, 2)))
    done = norms <= thr
    for i in np.flatnonzero(np.abs(norms - thr) <= _NEAR_THRESHOLD * thr):
        done[i] = _offdiag_norm(a[i]) <= thr[i]
    return done


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
    thr = np.array([OFF_NORM_FACTOR * float(np.linalg.norm(m)) for m in a])
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
        done = _converged(top[live], thr[live])
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
                app = top[rows, p, p].real
                aqq = top[rows, q, q].real
                theta = (aqq - app) / (2.0 * beta)
                sgn = np.where(theta >= 0.0, 1.0, -1.0)
                t = -sgn / (sgn * theta + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(1.0 + t * t)
                # the scalar expression as complex ufuncs: the same bits, signed zeros too
                s = (t * c) * (np.conj(apq) / beta)
                c, s = c[:, None], s[:, None]
                s_conj = np.conj(s)

                # columns p and q of a and v at once
                colp = w[rows, :, p]
                colq = w[rows, :, q]
                w[rows, :, p] = c * colp + s * colq
                w[rows, :, q] = -s_conj * colp + c * colq
                rowp = top[rows, p, :]
                rowq = top[rows, q, :]
                top[rows, p, :] = c * rowp + s_conj * rowq
                top[rows, q, :] = -s * rowp + c * rowq
                top[rows, p, p] = app + t * beta
                top[rows, q, q] = aqq - t * beta
                top[rows, p, q] = 0.0
                top[rows, q, p] = 0.0
                rotations[rows] += 1

    return rotations, converged
