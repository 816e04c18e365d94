"""Complex Gaussian quadrature for the oscillatory Bessel weight.

Nodes are the zeros x_k = i n pi w_k of the degree-n orthogonal polynomial
(raw frame); weights are the Christoffel-Darboux numbers h_{n-1} /
(P_{n-1}(x_k) P_n'(x_k)), h_{n-1} = b_0 ... b_{n-1} (Gautschi 2004), read
in the rescaled frame by the root finder's fixed-point recurrence.  The
weight changes sign, but the identity needs only a quasi-definite moment
functional (Deano, Huybrechs and Kuijlaars, J. Approx. Theory 162, 2010).
Exactness over degrees <= 2n-1 against the exact moments is the
certificate, summed as Gaussian ints in the rescaled frame, and reported
twice: relative to the largest moment (AC-2's report) and per degree,
relative to that degree's absolute sum sum_k |lambda_k x_k^j|, which sees
an error in any one weight, the largest included.

The polynomial is real, so its nodes come in conjugate pairs x and
conj(x) (w and -conj(w) in the rescaled frame) with conjugate weights.
Where `find_zeros` holds a root as the exact mirror image of its partner
(`ZeroSet.mirror_of`), the rule takes that node's weight as the exact
conjugate of the partner's and evaluates only the partner's.  Roots on
the axis, or in pairs about to meet there, were iterated on their own and
get their own weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .moments import moment_sequence, monic_op, rescale_to_tilde
from .mpfun import require_prec, workprec
from .zeros import find_zeros, fixed_eval_with_deriv, gauss_int, root_scale


@dataclass(frozen=True)
class QuadratureRule:
    nu: mpf
    n: int
    nodes: tuple            # raw-frame zeros (mpc)
    weights: tuple          # mpc
    exactness_report: mpf   # max_j<=2n-1 |sum w x^j - m_j| / max_j |m_j|
    # max_j<=2n-1 |sum w x^j - m_j| / sum |w x^j|, to float accuracy
    exactness_per_degree: mpf
    prec: int


def gauss_rule(n: int, nu, prec: int) -> QuadratureRule:
    """Gaussian rule for the regularized oscillatory weight.

    The zeros are computed in the rescaled frame (where the root finder
    seeds from the equilibrium law) and transported back by x = i n pi w,
    which is exact.  P~_{n-1} P~_n' = P_{n-1} P_n' / (i n pi)^(2n-2) at
    each root is one fixed-point pass at the root finder's scale.
    """
    require_prec(prec)
    poly = monic_op(n, nu, prec)
    tilde = rescale_to_tilde(poly)
    zs = find_zeros(tilde)
    scale = root_scale(zs.prec)     # where the roots are exact
    roots = [gauss_int(w, scale) for w in zs.roots]
    pair = fixed_eval_with_deriv(tilde.recurrence, scale)
    with workprec(zs.prec, guard=64):
        base = mpc(0, 1) * n * mp.pi
        nodes, weights = [base * w for w in zs.roots], [None] * n
        c = mp.fprod(b for _, b in poly.recurrence) / base ** (2 * n - 2)
        for k, (zr, zi) in enumerate(roots):
            if zs.mirror_of[k] is None:
                _, _, dr, di, qr, qi, e = pair(zr, zi)
                t = 2 * (e - scale)
                weights[k] = c / mpc(mpf((qr * dr - qi * di, t)),
                                     mpf((qr * di + qi * dr, t)))
        for k, j in enumerate(zs.mirror_of):
            if j is not None:
                weights[k] = mp.conj(weights[j])
    report, per_degree = _exactness_report(roots, scale, weights, nu,
                                           zs.prec)
    with workprec(2 * zs.prec):
        return QuadratureRule(nu=mpf(nu), n=n, nodes=tuple(nodes),
                              weights=tuple(weights), exactness_report=report,
                              exactness_per_degree=per_degree, prec=zs.prec)


def _log2_abs(xr: int, xi: int) -> float:
    """log2 |xr + i xi| of a Gaussian int, -inf at 0."""
    return 0.5 * math.log2(xr * xr + xi * xi) if xr or xi else -math.inf


def _exactness_report(roots, zscale: int, weights, nu, prec: int):
    """(max_j<2n |sum_k lambda_k x_k^j - m_j| / max|m|, max_j<2n |sum_k
    lambda_k x_k^j - m_j| / sum_k |lambda_k x_k^j|) for rescaled roots w_k
    (Gaussian ints at 2^zscale).  The defects are (n pi)^j |sum_k lambda_k
    w_k^j - m_j / (i n pi)^j|, the products Gaussian ints at 2^S with
    S = 2 prec + 64 + max_j mag((n pi)^j / max|m|); the per-degree scale
    (n pi)^j sum_k |lambda_k| |w_k|^j needs no precision and is summed in
    float base-2 logarithms, so the second report is good to float
    accuracy."""
    n = len(roots)
    ms = moment_sequence(2 * n - 1, nu, 2 * prec)
    with workprec(2 * prec):
        npi, mscale = n * mp.pi, max(abs(m) for m in ms)
        gain = [npi ** j / mscale for j in range(2 * n)]
        s = 2 * prec + 64 + max(int(mp.mag(g)) for g in gain)
        inv = 1 / (mpc(0, 1) * npi)
        mt = [gauss_int(m * inv ** j, s) for j, m in enumerate(ms)]
        terms, defect = [gauss_int(w, s) for w in weights], mpf(0)
        logs = [_log2_abs(tr, ti) for tr, ti in terms]   # + s: |lambda w^j|
        steps = [_log2_abs(wr, wi) - zscale for wr, wi in roots]
        worst = -math.inf      # log2 of the per-degree report
        for g, (mr, mi) in zip(gain, mt):
            dr = sum(tr for tr, _ in terms) - mr
            di = sum(ti for _, ti in terms) - mi
            defect = max(defect, g * mp.sqrt(dr * dr + di * di))
            if dr or di:
                top = max(logs)
                worst = max(worst, _log2_abs(dr, di) - top - math.log2(
                    sum(2 ** (x - top) for x in logs)))
            terms = [((tr * wr - ti * wi) >> zscale,
                      (tr * wi + ti * wr) >> zscale)
                     for (tr, ti), (wr, wi) in zip(terms, roots)]
            logs = [x + y for x, y in zip(logs, steps)]
        return mp.ldexp(defect, -s), mpf(2) ** worst


def apply_rule(rule: QuadratureRule, f):
    """sum_k w_k f(x_k): the rule's approximation to the regularized
    oscillatory integral of f against the Bessel weight."""
    with workprec(rule.prec):
        return +mp.fsum(w * f(x) for w, x in zip(rule.weights, rule.nodes))
