"""Machine-speed probe that the timed figures are scaled by.

On a shared 2-core virtual machine the same work takes up to 1.5x longer
for minutes at a time, in CPU time as well as wall time, because other
tenants share the physical cores. A run therefore times this probe after
every unit and scales the seconds spent in the units by ``NOMINAL_S``
over the probes' mean time: the probes sample the same slow and fast
spells as the units between them. Set-up time is not scaled: it did not
follow the probe (scaling doubled its spread).

The probe is a frozen copy of the cyclic Jacobi loop that dominates qir's
cost (small numpy row and column updates driven from Python) on one fixed
8 x 8 Hermitian matrix. It lives here, not in qir, so that no change to
qir can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

NOMINAL_S = 3.0e-3  # typical mean probe time on the reference machine (README)

_rng = np.random.default_rng(2018)
_z = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_MATRIX = (_z + _z.conj().T) / 2


def _jacobi(a: np.ndarray) -> int:
    n = a.shape[0]
    thr = 1e-14 * float(np.linalg.norm(a))
    rotations = 0
    while float(np.linalg.norm(a - np.diag(np.diag(a)))) > thr:
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                beta = abs(apq)
                if beta <= thr / n:
                    continue
                theta = (a[q, q].real - a[p, p].real) / (2.0 * beta)
                sgn = 1.0 if theta >= 0.0 else -1.0
                t = -sgn / (sgn * theta + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c * (apq.conjugate() / beta)
                colp, colq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * colp + s * colq
                a[:, q] = -np.conj(s) * colp + c * colq
                rowp, rowq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rowp + np.conj(s) * rowq
                a[q, :] = -s * rowp + c * rowq
                rotations += 1
    return rotations


def probe() -> float:
    """Seconds taken by one diagonalization of the fixed matrix."""
    a = _MATRIX.copy()
    t0 = time.perf_counter()
    _jacobi(a)
    return time.perf_counter() - t0
