"""Exact Bessel-weight moments, the three-term recurrence they determine,
and the monic orthogonal polynomials it generates.

The gamma-ratio moments m_j = 2^j G((1+nu+j)/2) / G((1+nu-j)/2) obey
m_0 = 1, m_1 = nu, m_{j+2} = (1+nu+j)(nu-1-j) m_j.  Gautschi's Chebyshev
algorithm (Orthogonal Polynomials: Computation and Approximation, 2004,
sec. 2.1.7) maps m_0..m_{2n-1} in O(n^2) to the coefficients of
P_{k+1} = (x - a_k) P_k - b_k P_{k-1} (b_0 = m_0), losing about 1.25 n
bits; b_k != 0 for all k < n certifies that P_n exists.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

from mpmath import mp, mpc, mpf

from .mpfun import require_prec, round_to, workprec

PREC_CAP_DEFAULT = 1 << 20
MIN_POLY_PREC = 256


class IndeterminateHankelError(ArithmeticError):
    """A b_k (a ratio of Hankel determinants) is not separable from 0."""


class SolverError(RuntimeError):
    """A computation missed its accuracy target after precision escalation."""


class Variable(Enum):
    RAW_X = "raw_x"          # P_n(x), real recurrence
    RESCALED_Z = "rescaled_z"  # (i n pi)^-n P_n(i n pi z)


@dataclass(frozen=True)
class MonicPolynomial:
    """Monic polynomial of degree len(recurrence), stored as its three-term
    recurrence P_{k+1} = (x - a_k) P_k - b_k P_{k-1}, pairs (a_k, b_k), and
    evaluated by it, which stays accurate where the power basis cancels."""

    recurrence: tuple
    variable: Variable
    prec: int
    residual: mpf = field(default_factory=lambda: mpf(0))

    @property
    def degree(self) -> int:
        return len(self.recurrence)

    def eval(self, z, prec: int | None = None):
        """Value at z (mpf or mpc)."""
        with workprec(prec or self.prec):
            z = mp.mpmathify(z)
            prev = z * 0
            acc = prev + 1
            for a, b in self.recurrence:
                prev, acc = acc, (z - a) * acc - b * prev
            return +acc

    def deriv_eval(self, z, prec: int | None = None):
        return self.eval_with_deriv(z, prec)[1]

    def eval_with_deriv(self, z, prec: int | None = None):
        """(P(z), P'(z)) in one pass of the recurrence."""
        with workprec(prec or self.prec):
            z = mp.mpmathify(z)
            p_prev = d_prev = d = z * 0
            p = d + 1
            for a, b in self.recurrence:
                t = z - a
                p_prev, p, d_prev, d = (p, t * p - b * p_prev,
                                        d, p + t * d - b * d_prev)
            return +p, +d


def _moments(count: int, nu):
    """m_0..m_{count-1} at the ambient precision, by their recurrence."""
    m = [mpf(1), +nu][:count]
    for j in range(count - 2):
        m.append((1 + nu + j) * (nu - 1 - j) * m[j])
    return m


def moment(j: int, nu, prec: int):
    """Regularized moment m_j of the oscillatory Bessel weight."""
    if j < 0:
        raise ValueError("moment index must be >= 0")
    return moment_sequence(j, nu, prec)[j]


def moment_sequence(kmax: int, nu, prec: int) -> tuple:
    """Moments m_0..m_kmax at the given precision."""
    with workprec(prec):
        vals = _moments(kmax + 1, mpf(nu))
    return tuple(round_to(v, prec) for v in vals)


def _chebyshev(n: int, nu, work: int):
    """Pairs (a_k, b_k), k < n, by the Chebyshev algorithm at work bits;
    sig[l] = L(P_k x^l) for the moment functional L, so sig[k] = h_k."""
    with workprec(work):
        sig = _moments(2 * n, mpf(nu))
        old = [0] * (2 * n)
        rec = [(sig[1] / sig[0], sig[0])]
        for k in range(1, n):
            (a, b), h = rec[-1], sig[k - 1]
            new = [0] * k + [sig[l + 1] - a * sig[l] - b * old[l]
                             for l in range(k, 2 * n - k)]
            if new[k] == 0:
                raise IndeterminateHankelError(f"b_{k} = 0 at {work} bits")
            rec.append((new[k + 1] / new[k] - sig[k] / h, new[k] / h))
            old, sig = sig, new
        return rec


def _solve_recurrence(n: int, nu, work: int):
    """The recurrence at work bits and its largest disagreement with a run
    64 bits deeper, relative to |b_k| and to |a_k| + |b_k|^(1/2).  A b_k
    that disagrees by its own size is not separated from zero."""
    lo, hi = _chebyshev(n, nu, work), _chebyshev(n, nu, work + 64)
    with workprec(work + 64):
        gap = mpf(0)
        for k, ((a, b), (a2, b2)) in enumerate(zip(lo, hi)):
            if abs(b - b2) >= abs(b2):
                raise IndeterminateHankelError(
                    f"b_{k} not separated from 0 at {work} bits")
            gap = max(gap, abs(b - b2) / abs(b2),
                      abs(a - a2) / (abs(a2) + mp.sqrt(abs(b2))))
    return tuple(lo), gap


def _certified_recurrence(n: int, nu, prec: int):
    """The recurrence to 2^-max(prec, 256) relative and its working
    precision, max(prec, 256) + 2n + 32 bits with the guard doubling while
    the runs disagree, up to the cap 2^20 (or OSCQ_PREC_CAP)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base, guard = max(require_prec(prec), MIN_POLY_PREC), 2 * n + 32
    cap = int(os.environ.get("OSCQ_PREC_CAP") or PREC_CAP_DEFAULT)
    while True:
        work = min(base + guard, cap)
        try:
            rec, gap = _solve_recurrence(n, nu, work)
        except IndeterminateHankelError:
            if work >= cap:
                raise
        else:
            if gap <= mpf(2) ** -base:
                return rec, work
            if work >= cap:
                raise SolverError(f"recurrence disagrees by {mp.nstr(gap, 6)}"
                                  f" at the precision cap {cap}")
        guard *= 2


def hankel_det(n: int, nu, prec: int):
    """Hankel determinant det[m_{i+j}]_{i,j<n} = prod_{k<n} b_0 ... b_k of
    the certified recurrence; nonzero certifies existence."""
    rec, work = _certified_recurrence(n, nu, prec)
    with workprec(work):
        h = det = mpf(1)
        for _, b in rec:
            h *= b
            det *= h
    return round_to(det, prec)


def _coefficients(recurrence) -> tuple:
    """Power-basis coefficients c_0..c_{n-1} (leading 1 omitted) of the
    recurrence's polynomial, expanded at the ambient precision."""
    older, old = [], [mpf(1)]
    for a, b in recurrence:    # low coefficient first
        older, old = old, [x - a * c - b * o for x, c, o in
                           zip([0] + old, old + [0], older + [0, 0])]
    return tuple(old[:-1])


def monic_op(n: int, nu, prec: int) -> MonicPolynomial:
    """Monic orthogonal polynomial P_n (raw frame) of max(prec, 256) bits
    from its certified recurrence.  The residual is the re-orthogonality
    residual against exact moments, at twice the recurrence's working
    precision, of the coefficients expanded at that precision."""
    rec, work = _certified_recurrence(n, nu, prec)
    with workprec(work):
        coeffs = _coefficients(rec)
    with workprec(2 * work):
        ms = _moments(2 * n, mpf(nu))
        residual = max(
            abs(mp.fsum(c * m for c, m in zip(coeffs, ms[j:])) + ms[j + n])
            / max(abs(m) for m in ms[j:j + n + 1]) for j in range(n))
    return MonicPolynomial(recurrence=rec, variable=Variable.RAW_X,
                           prec=max(prec, MIN_POLY_PREC), residual=residual)


def rescale_to_tilde(p: MonicPolynomial, n: int) -> MonicPolynomial:
    """Rescaled polynomial (i n pi)^-n P(i n pi z): a_k -> a_k/(i n pi),
    b_k -> b_k/(i n pi)^2."""
    if p.variable is not Variable.RAW_X:
        raise ValueError("rescale_to_tilde expects a raw-frame polynomial")
    if p.degree != n:
        raise ValueError("degree mismatch")
    with workprec(p.prec, guard=2 * n + 64):   # the recurrence's guard bits
        inv = 1 / (mpc(0, 1) * n * mp.pi)
        rec = tuple((a * inv, (b * inv * inv).real) for a, b in p.recurrence)
    return MonicPolynomial(recurrence=rec, variable=Variable.RESCALED_Z,
                           prec=p.prec, residual=p.residual)
