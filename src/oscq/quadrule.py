"""Complex Gaussian quadrature for the oscillatory Bessel weight.

Nodes are the zeros of the degree-n orthogonal polynomial (raw frame);
weights are the Christoffel numbers 1 / sum_{j<n} P_j(x_k)^2 / h_j with
h_j = b_0 ... b_j.  The weight changes sign, but the Christoffel-Darboux
identity behind them needs only a quasi-definite moment functional (Deano,
Huybrechs and Kuijlaars, J. Approx. Theory 162, 2010, on complex Gaussian
quadrature).  Exactness over degrees <= 2n-1 against the exact moments is
the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .moments import moment_sequence, monic_op, rescale_to_tilde
from .mpfun import require_prec, workprec
from .zeros import find_zeros


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
    which is exact.  The exactness report carries w_k x_k^j as a running
    product over j.
    """
    require_prec(prec)
    poly = monic_op(n, nu, prec)
    tilde = rescale_to_tilde(poly, n)
    zs = find_zeros(tilde, prec=max(prec, min(tilde.prec, 2 * prec)))
    with workprec(zs.prec, guard=64):
        base = mpc(0, 1) * n * mp.pi
        nodes, weights = [base * w for w in zs.roots], []
        for x in nodes:     # Christoffel numbers by the raw recurrence
            p_prev, p, h, s = 0, mpf(1), mpf(1), 0
            for a, b in poly.recurrence:
                h *= b
                s += p * p / h
                p_prev, p = p, (x - a) * p - b * p_prev
            weights.append(1 / s)
    ms = moment_sequence(2 * n - 1, nu, 2 * zs.prec)
    with workprec(2 * zs.prec):
        nu = mpf(nu)
        mscale = max(abs(ms[j]) for j in range(2 * n))
        defect, terms = mpf(0), weights     # terms[k] = w_k x_k^j
        for j in range(2 * n):
            defect = max(defect, abs(mp.fsum(terms) - ms[j]))
            terms = [t * x for t, x in zip(terms, nodes)]
        report = +(defect / mscale)
    return QuadratureRule(nu=nu, n=n, nodes=tuple(nodes),
                          weights=tuple(weights), exactness_report=report,
                          prec=zs.prec)


def apply_rule(rule: QuadratureRule, f):
    """sum_k w_k f(x_k): the rule's approximation to the regularized
    oscillatory integral of f against the Bessel weight."""
    with workprec(rule.prec):
        return +mp.fsum(w * f(x) for w, x in zip(rule.weights, rule.nodes))
