"""Simultaneous root finding for the monic orthogonal polynomials and
zero-distribution statistics against the limiting laws.

Aberth-Ehrlich iteration, no deflation: all n roots are refined together,
which is robust for the clustered complex roots these polynomials produce.
Runs are deterministic for a given (polynomial, precision).
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .equilibrium import epsilon_n, psi_cdf
from .moments import MonicPolynomial, SolverError, Variable
from .mpfun import workprec

MAX_SWEEPS = 500
FLOAT_TOL = 1e-12   # hand-over point of the float stage


@dataclass(frozen=True)
class ZeroSet:
    roots: tuple          # mpc, sorted by (Re, Im)
    residuals: tuple      # each root's last Newton correction |P/P'|
    variable: Variable
    prec: int


def _initial_guesses(p: MonicPolynomial, prec: int):
    """Seeds on an ellipse around [-1,1], or on the unit circle (raw)."""
    n = p.degree
    with workprec(prec):
        rx, ry = ((mpf("1.2"), mpf("0.4"))
                  if p.variable is Variable.RESCALED_Z else (1, 1))
        return [mpc(rx * mp.cos(th), ry * mp.sin(th)) for th in
                (2 * mp.pi * (j + mpf(1) / 2) / n for j in range(n))]


def _float_eval_with_deriv(recurrence):
    """z -> (c P(z), c P'(z)) for some c > 0, in Python complex floats;
    the values are rescaled whenever they leave [1e-100, 1e100]."""
    ab = [(complex(a), complex(b)) for a, b in recurrence]

    def pair(z):
        p_prev, p, d_prev, d = 0j, 1 + 0j, 0j, 0j
        for a, b in ab:
            t = z - a
            p_prev, p, d_prev, d = (p, t * p - b * p_prev,
                                    d, p + t * d - b * d_prev)
            s = abs(p) + abs(d)
            if not 1e-100 < s < 1e100:
                p_prev, p, d_prev, d = p_prev / s, p / s, d_prev / s, d / s
        return p, d
    return pair


def _aberth(z, pair, tol, sweeps: int):
    """Aberth-Ehrlich sweeps on z (Python complex or mpc), pair(w) giving
    P(w) and P'(w) up to a common factor.  A root is frozen once its Newton
    correction |P/P'| is below tol.  Returns each root's last correction
    (0 where P vanished), below tol exactly for the frozen roots."""
    n = len(z)
    corr = [tol] * n
    active = range(n)
    for _ in range(sweeps):
        still = []
        for k in active:
            pv, dv = pair(z[k])
            if pv == 0:
                corr[k] = 0
                continue
            if dv == 0:
                z[k] += tol  # nudge off the critical point
                still.append(k)
                continue
            newton = pv / dv
            corr[k] = abs(newton)
            zk = z[k]
            s = sum(1 / (zk - w) for w in z[:k]) \
                + sum(1 / (zk - w) for w in z[k + 1:])
            denom = 1 - newton * s
            z[k] -= newton if denom == 0 else newton / denom
            if not corr[k] < tol:
                still.append(k)
        active = still
        if not active:
            break
    return corr


def find_zeros(p: MonicPolynomial, prec: int | None = None) -> ZeroSet:
    """All roots of p with Newton corrections below 2^(-prec/2): Aberth
    in floats from the seeds, then at prec + 64 bits from the float roots."""
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    prec = prec or p.prec
    n = p.degree
    tol = mpf(2) ** (-(prec // 2))
    with workprec(prec, guard=64):
        zf = [complex(w) for w in _initial_guesses(p, prec)]
        _aberth(zf, _float_eval_with_deriv(p.recurrence), FLOAT_TOL,
                MAX_SWEEPS)
        z = [mpc(w) for w in zf]
        corr = _aberth(z, lambda w: p.eval_with_deriv(w, prec + 64), tol,
                       MAX_SWEEPS)
        if not max(corr) < tol:
            raise SolverError(
                f"Aberth iteration did not converge in {MAX_SWEEPS} sweeps; "
                f"worst Newton correction {mp.nstr(max(corr), 6)}")
        order = sorted(range(n), key=lambda k: (z[k].real, z[k].imag))
        return ZeroSet(roots=tuple(mpc(z[k]) for k in order),
                       residuals=tuple(mpf(corr[k]) for k in order),
                       variable=p.variable, prec=prec)


@dataclass(frozen=True)
class ZeroLineStats:
    max_dev: object        # mpf, or None when no roots are retained
    zeros_considered: int
    epsilon_n: mpf


def zero_line_stats(zs: ZeroSet, n: int, nu, delta) -> ZeroLineStats:
    """Deviation of retained zeros from the vertical line Re = nu*pi/2.

    Retained means outside the disks around 0 and +-1 in the rescaled
    frame (|w| < delta/pi and |w -+ 1| < delta/pi are dropped, matching
    the raw-frame disks of radius n*delta).  Deviations are measured in
    the raw frame, z = i n pi w.
    """
    if zs.variable is not Variable.RESCALED_Z:
        raise ValueError("zero_line_stats expects rescaled-frame roots")
    with workprec(zs.prec):
        nu = mpf(nu)
        delta = mpf(delta)
        rad = delta / mp.pi
        target = nu * mp.pi / 2
        devs = []
        for w in zs.roots:
            if abs(w) < rad or abs(w - 1) < rad or abs(w + 1) < rad:
                continue
            re_z = -n * mp.pi * w.imag
            devs.append(abs(re_z - target))
        return ZeroLineStats(max_dev=+max(devs) if devs else None,
                             zeros_considered=len(devs),
                             epsilon_n=epsilon_n(n, nu, zs.prec))


def ecdf_vs_psi(zs: ZeroSet, prec: int | None = None):
    """Kolmogorov distance between the real-part empirical CDF and the
    equilibrium CDF."""
    if len(zs.roots) == 0:
        raise ValueError("empty zero set")
    prec = prec or zs.prec
    with workprec(prec):
        xs = sorted(w.real for w in zs.roots)
        n = len(xs)
        dist = mpf(0)
        for i, x in enumerate(xs):
            x = min(max(x, mpf(-1)), mpf(1))
            fx = psi_cdf(x, prec)
            dist = max(dist, abs(mpf(i + 1) / n - fx), abs(mpf(i) / n - fx))
        return +dist
