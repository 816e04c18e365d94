"""Exact Bessel-weight moments, the three-term recurrence they determine,
and the monic orthogonal polynomials it generates.

The moments obey m_0 = 1, m_1 = nu, m_{j+2} = (1+nu+j)(nu-1-j) m_j.
Gautschi's Chebyshev algorithm (Orthogonal Polynomials: Computation and
Approximation, 2004, sec. 2.1.7; _table) maps m_0..m_{2n-1} to the pairs
of P_{k+1} = (x - a_k) P_k - b_k P_{k-1}; b_k != 0 for every k < n
certifies that P_n exists.  Measured at nu = 0.25, the pairs lose about
1.2 n bits against a run 200 bits deeper (79 at n = 64, 245 at n = 200),
inside the 2n + 32 guard bits; the same table, run on the stored pairs
from the deeper run's moments, gives the residual.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate

from mpmath import mp, mpc, mpf

from .mpfun import man_exp, require_prec, round_to, to_fixed, workprec

PREC_CAP = 1 << 20   # ceiling of the guard doubling in _certified_recurrence


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
    recurrence P_{k+1} = (x - a_k) P_k - b_k P_{k-1}, pairs (a_k, b_k); its
    mpc evaluators are the oracle of zeros.fixed_eval_with_deriv."""

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
    """m_0..m_{count-1} at the ambient precision, by their recurrence,
    whose factor (1+nu+j)(nu-1-j) is nu^2 - (j+1)^2."""
    m, nu2 = [mpf(1), +nu][:count], nu * nu
    for j in range(count - 2):
        m.append((nu2 - (j + 1) ** 2) * m[j])
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


def _fixed_moments(count: int, nu, scale: int):
    """m_0..m_{count-1} at the ambient precision, by their recurrence, as
    mpf and each as an int at 2^(scale - E_j), and the exponents E_j: one
    per anti-diagonal j = k + l of the Chebyshev table.  2^E_j follows |m_j|
    through the same recurrence, with the odd diagonals started from 1,
    not from m_1 = nu (the odd moments vanish at nu = 0), and factors
    below 2^-32 (nu near an integer) counted as 2^-32, so no shift of
    _table goes negative."""
    m, size = _moments(count, nu), [mpf(1), mpf(1)][:count]
    nu2, floor = nu * nu, mpf(2) ** -32
    for j in range(count - 2):
        size.append(size[j] * max(abs(nu2 - (j + 1) ** 2), floor))
    exps = [int(mp.mag(v)) for v in size]
    return m, [to_fixed(*man_exp(v), scale - e)
               for v, e in zip(m, exps)], exps


def _narrow(x, scale: int, room: int):
    """x 2^scale as f 2^t exactly, with the int f no wider than x's
    mantissa needs for t <= room."""
    man, exp = man_exp(x)
    t = min(exp + scale, room)
    return man << exp + scale - t, t


def _table(n: int, moments, scale: int, rec=None):
    """Gautschi's Chebyshev table sig_k(l) = L(P_k x^l) in Python-int
    fixed point from moments = _fixed_moments(2n, nu, scale): entry (k, l)
    is an int at 2^(scale - E_{k+l}), one exponent per anti-diagonal, so
    the update sig_{k+1}(l) = sig_k(l+1) - a_k sig_k(l) - b_k sig_{k-1}(l)
    is two products and two shifts, fixed per diagonal.  Without rec, the pairs
    (a_k, b_k), k < n, are read off the table as mpf ratios at the ambient
    precision (entries l < k, zero in exact arithmetic, are skipped) and
    returned.  With rec, the table runs on its pairs and returns row n,
    L(P_n x^j) for j < n, as mpf."""
    _, sig, e = moments
    old = [0] * (2 * n)
    # shifts of the a_k and b_k products into anti-diagonal j (the
    # entries below j = 1 and j = 2 only fill the index)
    sh_a = [scale] + [scale + d - c for c, d in zip(e, e[1:])]
    sh_b = [scale] * 2 + [scale + d - c for c, d in zip(e, e[2:])]
    room = min(sh_a + sh_b)
    out, r_prev = [], 0
    for k in range(n):
        if rec is None:
            if sig[k] == 0:
                raise IndeterminateHankelError(f"b_{k} = 0 at {scale} bits")
            # a_k = r_k - r_{k-1}, r_k = sig_k(k+1) / sig_k(k)
            r = mp.ldexp(mpf(sig[k + 1]) / sig[k], e[2 * k + 1] - e[2 * k])
            b = (mp.ldexp(mpf(sig[k]) / old[k - 1], e[2 * k] - e[2 * k - 2])
                 if k else mpf(1))
            out.append((r - r_prev, b))
            r_prev = r
            if k == n - 1:
                return out
            lo = k + 1
        else:
            lo = 0
        (fa, ta), (fb, tb) = (_narrow(x, scale, room) for x in
                              (rec[k] if rec else out[k]))
        old, sig = sig, [0] * lo + [
            sig[l + 1] - (fa * sig[l] >> sh_a[k + 1 + l] - ta)
            - (fb * old[l] >> sh_b[k + 1 + l] - tb)
            for l in range(lo, 2 * n - k - 1)]
    return [mp.ldexp(sig[j], e[n + j] - scale) for j in range(n)]


def _solve_recurrence(n: int, nu, work: int):
    """The recurrence from the table at work bits, its largest
    disagreement with a run 64 bits deeper, relative to |b_k| and to
    |a_k| + |b_k|^(1/2), and the deeper run's _fixed_moments.  A b_k that
    disagrees by its own size is not separated from zero."""
    runs = []
    for bits in (work, work + 64):
        with workprec(bits):
            moments = _fixed_moments(2 * n, mpf(nu), mp.prec)
            runs.append(_table(n, moments, mp.prec))
    lo, hi = runs
    with workprec(work + 64):
        gap = mpf(0)
        for k, ((a, b), (a2, b2)) in enumerate(zip(lo, hi)):
            if abs(b - b2) >= abs(b2):
                raise IndeterminateHankelError(
                    f"b_{k} not separated from 0 at {work} bits")
            gap = max(gap, abs(b - b2) / abs(b2),
                      abs(a - a2) / (abs(a2) + mp.sqrt(abs(b2))))
    return tuple(lo), gap, moments


def _certified_recurrence(n: int, nu, prec: int):
    """The recurrence to 2^-prec relative, its working precision (prec +
    2n + 32 bits, the guard doubling while the runs disagree, up to
    PREC_CAP bits) and the deeper run's moments."""
    if n < 1:
        raise ValueError("n must be >= 1")
    base, guard = require_prec(prec), 2 * n + 32
    while True:
        work = min(base + guard, PREC_CAP)
        try:
            rec, gap, moments = _solve_recurrence(n, nu, work)
        except IndeterminateHankelError:
            if work >= PREC_CAP:
                raise
        else:
            if gap <= mpf(2) ** -base:
                return rec, work, moments
            if work >= PREC_CAP:
                raise SolverError(f"recurrence disagrees by {mp.nstr(gap, 6)}"
                                  f" at the precision cap {PREC_CAP}")
        guard *= 2


def hankel_det(n: int, nu, prec: int):
    """Hankel determinant det[m_{i+j}]_{i,j<n} = prod_{k<n} b_0 ... b_k of
    the certified recurrence; nonzero certifies existence."""
    rec, work, _ = _certified_recurrence(n, nu, prec)
    with workprec(work):
        h = det = mpf(1)
        for _, b in rec:
            h *= b
            det *= h
    return round_to(det, prec)


def monic_op(n: int, nu, prec: int) -> MonicPolynomial:
    """Monic orthogonal polynomial P_n (raw frame) of prec bits from its
    certified recurrence.  The residual is max_j<n |L(P_n x^j)| /
    max|m_{j..j+n}| for the polynomial the stored pairs define, read off
    row n of the Chebyshev table run on those pairs and on the m_j of
    the certification's run 64 bits above the working precision."""
    rec, work, moments = _certified_recurrence(n, nu, prec)
    with workprec(work + 64):
        row = _table(n, moments, mp.prec, rec)
        size = [abs(m) for m in moments[0]]
        # max|m_{j..j+n}| = max(max|m_{j..n-1}|, max|m_{n..n+j}|)
        head = list(accumulate(reversed(size[:n]), max))[::-1]
        residual = max(abs(r) / max(h, t) for r, h, t in
                       zip(row, head, accumulate(size[n:], max)))
    return MonicPolynomial(recurrence=rec, variable=Variable.RAW_X,
                           prec=prec, residual=residual)


def rescale_to_tilde(p: MonicPolynomial) -> MonicPolynomial:
    """Rescaled polynomial (i n pi)^-n P(i n pi z), n = p.degree:
    a_k -> a_k/(i n pi), b_k -> b_k/(i n pi)^2."""
    if p.variable is not Variable.RAW_X:
        raise ValueError("rescale_to_tilde expects a raw-frame polynomial")
    n = p.degree
    with workprec(p.prec, guard=2 * n + 64):   # the recurrence's guard bits
        inv = 1 / (mpc(0, 1) * n * mp.pi)
        rec = tuple((a * inv, (b * inv * inv).real) for a, b in p.recurrence)
    return MonicPolynomial(recurrence=rec, variable=Variable.RESCALED_Z,
                           prec=p.prec, residual=p.residual)
