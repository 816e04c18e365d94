"""Complex Gaussian quadrature for the oscillatory Bessel weight.

Nodes are the zeros x_k = i n pi w_k of the degree-n orthogonal polynomial
(raw frame); weights are the Christoffel-Darboux numbers h_{n-1} /
(P_{n-1}(x_k) P_n'(x_k)), h_{n-1} = b_0 ... b_{n-1} (Gautschi 2004), read
in the rescaled frame by the root finder's fixed-point recurrence.  The
weight changes sign, but the identity needs only a quasi-definite moment
functional (Deano, Huybrechs and Kuijlaars, J. Approx. Theory 162, 2010).
Exactness over degrees <= 2n-1 against the exact moments is the
certificate, summed as Gaussian ints in the rescaled frame.
"""

from __future__ import annotations

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
    zs = find_zeros(tilde, prec=min(tilde.prec, 2 * prec))
    scale = root_scale(zs.prec)     # where the roots are exact
    roots = [gauss_int(w, scale) for w in zs.roots]
    pair = fixed_eval_with_deriv(tilde.recurrence, scale)
    with workprec(zs.prec, guard=64):
        base = mpc(0, 1) * n * mp.pi
        nodes, weights = [base * w for w in zs.roots], []
        c = mp.fprod(b for _, b in poly.recurrence) / base ** (2 * n - 2)
        for zr, zi in roots:
            _, _, dr, di, qr, qi, e = pair(zr, zi)
            t = 2 * (e - scale)
            weights.append(c / mpc(mpf((qr * dr - qi * di, t)),
                                   mpf((qr * di + qi * dr, t))))
    report = _exactness_report(roots, scale, weights, nu, zs.prec)
    with workprec(2 * zs.prec):
        return QuadratureRule(nu=mpf(nu), n=n, nodes=tuple(nodes),
                              weights=tuple(weights), exactness_report=report,
                              prec=zs.prec)


def _exactness_report(roots, zscale: int, weights, nu, prec: int):
    """max_j<2n |sum_k lambda_k x_k^j - m_j| / max|m| for rescaled roots
    w_k (Gaussian ints at 2^zscale), as (n pi)^j |sum_k lambda_k w_k^j -
    m_j / (i n pi)^j| / max|m|, the products Gaussian ints at 2^S with
    S = 2 prec + 64 + max_j mag((n pi)^j / max|m|)."""
    n = len(roots)
    ms = moment_sequence(2 * n - 1, nu, 2 * prec)
    with workprec(2 * prec):
        npi, mscale = n * mp.pi, max(abs(m) for m in ms)
        gain = [npi ** j / mscale for j in range(2 * n)]
        s = 2 * prec + 64 + max(int(mp.mag(g)) for g in gain)
        inv = 1 / (mpc(0, 1) * npi)
        mt = [gauss_int(m * inv ** j, s) for j, m in enumerate(ms)]
        terms, defect = [gauss_int(w, s) for w in weights], mpf(0)
        for g, (mr, mi) in zip(gain, mt):
            dr = sum(tr for tr, _ in terms) - mr
            di = sum(ti for _, ti in terms) - mi
            defect = max(defect, g * mp.sqrt(dr * dr + di * di))
            terms = [((tr * wr - ti * wi) >> zscale,
                      (tr * wi + ti * wr) >> zscale)
                     for (tr, ti), (wr, wi) in zip(terms, roots)]
        return mp.ldexp(defect, -s)


def apply_rule(rule: QuadratureRule, f):
    """sum_k w_k f(x_k): the rule's approximation to the regularized
    oscillatory integral of f against the Bessel weight."""
    with workprec(rule.prec):
        return +mp.fsum(w * f(x) for w, x in zip(rule.weights, rule.nodes))
