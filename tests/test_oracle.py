"""A 50-digit oracle for the entropies and slacks of one configuration.

mpmath recomputes every ``EntropyBundle`` field and every relation's slack
from the float64 state, basis vectors and strength alone. It builds rho_B,
the states dephased in X and in Y, the mixture monitored by Y and that
mixture dephased in X as dense matrices, from their definitions, and
takes their spectra with ``mpmath.eighe``: neither qir's kernel nor its
blocks are used. The slacks are the paper's formulas on those entropies.
qir must agree with them to 1e-12 nats.
"""

import math

import numpy as np
import pytest
from mpmath import mp

import qir
from qir.relations import RELATIONS, _bundle, evaluate_relations
from qir.states import BipartiteState, ObservableBasis

DIGITS = 50
TOL = 1e-12


def entropy(m):
    """-sum l ln l over the eigenvalues of the Hermitian ``m``; round-off at or below zero counts 0."""
    return -mp.fsum(w * mp.log(w) for w in mp.eighe(m, eigvals_only=True) if w > 0)


def marginal_b(rho, d_a, d_b):
    """Tr_A rho: entry (b, d) is sum_a rho[(a, b), (a, d)]."""
    return mp.matrix([[mp.fsum(rho[a * d_b + b, a * d_b + d] for a in range(d_a)) for d in range(d_b)]
                      for b in range(d_b)])


def dephased(rho, x, d_a, d_b):
    """sum_i (|x_i><x_i| (x) 1) rho (|x_i><x_i| (x) 1), dense: sum_i |x_i><x_i| (x) s_i with
    s_i[b, d] = sum_{a, c} conj(x_i[a]) x_i[c] rho[(a, b), (c, d)]."""
    n = d_a * d_b
    out = mp.zeros(n, n)
    for i in range(d_a):
        col = [x[a, i] for a in range(d_a)]
        s = [[mp.fsum(mp.conj(col[a]) * col[c] * rho[a * d_b + b, c * d_b + d]
                      for a in range(d_a) for c in range(d_a)) for d in range(d_b)] for b in range(d_b)]
        for a in range(d_a):
            for c in range(d_a):
                outer = col[a] * mp.conj(col[c])
                for b in range(d_b):
                    for d in range(d_b):
                        out[a * d_b + b, c * d_b + d] += outer * s[b][d]
    return out


def oracle(state, x, y, eps):
    """The bundle's fields and every relation's slack at ``DIGITS`` digits, as floats."""
    d_a, d_b = state.d_a, state.d_b
    with mp.workdps(DIGITS):
        rho = mp.matrix(state.rho.tolist())
        xv, yv = mp.matrix(x.vectors.tolist()), mp.matrix(y.vectors.tolist())
        h_ab = entropy(rho)
        h_b = entropy(marginal_b(rho, d_a, d_b))
        h_x = entropy(dephased(rho, xv, d_a, d_b))
        h_y = entropy(dephased(rho, yv, d_a, d_b))
        monitored = (1 - mp.mpf(eps)) * rho + mp.mpf(eps) * dephased(rho, yv, d_a, d_b)
        irr_x_monitored = entropy(dephased(monitored, xv, d_a, d_b)) - entropy(monitored)
        c = max(abs(mp.fsum(mp.conj(xv[a, i]) * yv[a, j] for a in range(d_a)))
                for i in range(d_a) for j in range(d_a))
        q = -2 * mp.log(c)
        h_xb, h_yb, irr_x, irr_y, h_a_b = h_x - h_b, h_y - h_b, h_x - h_ab, h_y - h_ab, h_ab - h_b
        fields = dict(h_ab=h_ab, h_b=h_b, h_x_given_b=h_xb, irreality_x=irr_x, h_y_given_b=h_yb,
                      irreality_y=irr_y, q=q, irreality_x_monitored=irr_x_monitored)
        slacks = {
            "eq5": h_xb + h_yb - (q + h_a_b),
            "eq7": -abs(irr_x - (h_xb - h_a_b)),
            "eq8": -max(abs(u - v) for u, v in ((h_xb - irr_x, h_yb - irr_y), (h_xb - irr_x, h_a_b),
                                                (h_yb - irr_y, h_a_b))),
            "eq9": irr_x + h_yb - q,
            "eq10": irr_x + irr_y - (q - h_a_b),
            "eq11": h_xb + irr_x + h_yb + irr_y - 2 * q,
            "eq16": irr_x_monitored + h_yb - q,
        }
        return {k: float(v) for k, v in fields.items()}, {k: float(v) for k, v in slacks.items()}


def rotated(d, angle):
    """The computational basis of C^d with its first two vectors turned by ``angle``."""
    v = np.eye(d)
    v[:2, :2] = [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    return ObservableBasis(d, v)


def configurations():
    """(id, state, X, Y, eps): the saturating cases, a Werner state, the pi/8
    counterexample and 24 seeded draws over the 12 acceptance pairs."""
    out = []
    for d in (2, 3):
        x, y = qir.computational_basis(d), qir.fourier_basis(d)
        out.append((f"saturate-entangled-{d}", qir.max_entangled(d), x, y, 0.5))
        out.append((f"saturate-mixed-{d}", qir.max_mixed(d, d), x, y, 0.5))
    out.append(("werner-0.5", qir.werner(0.5), qir.computational_basis(2), qir.fourier_basis(2), 0.3))
    for d_b in (1, 2):
        ground = np.kron(np.diag([1.0, 0.0]), np.eye(d_b) / d_b)
        out.append((f"pi/8-dB{d_b}", BipartiteState(2, d_b, ground), qir.computational_basis(2),
                    rotated(2, math.pi / 8), 1.0))
    for k, (d_a, d_b) in enumerate((a, b) for a in (2, 3, 4, 5) for b in (1, 2, 3)):
        eps = float(np.random.default_rng((81, k)).uniform())
        x, y = qir.random_basis(d_a, (82, k)), qir.random_basis(d_a, (83, k))
        out.append((f"haar-pure-{d_a}x{d_b}", qir.haar_random_pure(d_a, d_b, (84, k)), x, y, eps))
        out.append((f"induced-mixed-{d_a}x{d_b}", qir.random_mixed(d_a, d_b, d_a * d_b, (85, k)), y, x, 1 - eps))
    return out


CONFIGURATIONS = configurations()


@pytest.mark.parametrize("name, state, x, y, eps", CONFIGURATIONS, ids=[c[0] for c in CONFIGURATIONS])
def test_bundle_and_slacks_match_the_oracle(name, state, x, y, eps):
    fields, slacks = oracle(state, x, y, eps)
    bundle = _bundle(x, y, state, eps)
    got = {field: getattr(bundle, field) for field in fields}
    off = {field: got[field] - fields[field] for field in fields if abs(got[field] - fields[field]) > TOL}
    assert not off, off
    reports = evaluate_relations(list(RELATIONS), x, y, state, eps=eps)
    off = {r: reports[r].slack - slacks[r] for r in RELATIONS if abs(reports[r].slack - slacks[r]) > TOL}
    assert not off, off
