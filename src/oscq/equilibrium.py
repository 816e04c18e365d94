"""Equilibrium measure for the external field pi*|x| and its derived
objects: the density psi, its CDF, the log-potential g, the Lagrange
constant, the phase function phi and the oscillation phase theta_n.

psi(x) = log((1+sqrt(1-x^2))/|x|)/pi on [-1,1]; every derived object is a
closed form of its antiderivative F (Saff & Totik, Logarithmic Potentials
with External Fields, ch. IV; phase_terms), so this layer runs no
quadrature.  The public functions take their working precision in bits
and round once.  The cores pi_psi, phase_terms, theta_terms, g_at and
imag_axis_terms run at the ambient precision from a branch root the
caller holds, so the evaluators of parametrix and smallnorm form each
root once per point.
"""

from __future__ import annotations

import math

from mpmath import mp, mpc, mpf

from .branches import sqrt_offcut, sqrt_onecut
from .mpfun import GUARD_BITS, DomainError, round_to, workprec


def psi_real(x, prec: int):
    """Limiting zero density on [-1,1]; even, >= 0, log-divergent at 0."""
    with workprec(prec):
        x = mpf(x)
        if x == 0:
            raise DomainError("psi has a logarithmic singularity at x = 0")
        if abs(x) > 1:
            raise DomainError("psi is supported on [-1,1]")
        v = pi_psi(abs(x), mp.sqrt(1 - x * x)) / mp.pi
    return round_to(v, prec)


def psi_complex(z, prec: int):
    """Analytic continuation of the density to {Re z > 0} \\ [1, oo)."""
    with workprec(prec):
        z = mpc(z)
        if z.real <= 0:
            raise DomainError("psi continuation requires Re z > 0")
        if z.imag == 0 and z.real >= 1:
            raise DomainError("psi continuation is cut along [1, oo)")
        v = pi_psi(z, sqrt_onecut(z)) / mp.pi
    return round_to(v, prec)


def pi_psi(z, s):
    """pi psi(z) = log((1+s)/z) at s = (1-z^2)^(1/2), z != 0, at the
    ambient precision."""
    return mp.log((1 + s) / z)


def phase_terms(z, s):
    """(pi psi(z), pi integral_z^1 psi, arccos z) at s = (1-z^2)^(1/2),
    z != 0, at the ambient precision: arccos z = -i log(z + i s) and
    pi integral_z^1 psi = pi (1/2 - F(z)) = arccos z - z pi psi(z).  With
    the principal s (sqrt_onecut) this holds on {Re z > 0} \\ [1, oo);
    on the closed first quadrant s = -i w, w = (z^2-1)^(1/2) (sqrt_offcut)
    analytic across (1, oo), also gives the limit from above on [1, oo)
    and the imaginary axis."""
    i = mpc(0, 1)
    p = pi_psi(z, s)
    arccos = -i * mp.log(z + i * s)
    return p, arccos - z * p, arccos


def theta_terms(z, n: int, s):
    """(theta_n(z), pi psi(z)) at s = (1-z^2)^(1/2), principal, for
    Re z > 0 off [1, oo), at the ambient precision: theta_n =
    n pi integral_z^1 psi + arccos(z)/4 - pi/4 (phase_terms)."""
    p, phase, arccos = phase_terms(z, s)
    return n * phase + arccos / 4 - mp.pi / 4, p


def _primitive(z):
    """F(z) = integral_0^z psi = 1/2 - (pi integral_z^1 psi)/pi for
    Re z >= 0 at the ambient precision; F(0) = 0, F(1) = 1/2.  On the
    closed first quadrant phase_terms runs at s = -i w, so [1, oo) gets
    the limit from Im z > 0; below, F(conj z) = conj F(z)."""
    if z.imag < 0:
        return mp.conj(_primitive(mp.conj(z)))
    if z == 0:
        return mpc(0)
    return mpf(1) / 2 - phase_terms(z, -mpc(0, 1) * sqrt_offcut(z))[1] / mp.pi


def psi_quantiles(n: int) -> list:
    """The (k + 1/2)/n quantiles of the equilibrium measure, k < n, in
    Python floats: F(x) = (x log((1+(1-x^2)^(1/2))/x) + arcsin x)/pi of
    _primitive on (0, 1], inverted by bisection; x_{n-1-k} = -x_k."""
    def f(x):
        return (x * math.log((1 + math.sqrt(1 - x * x)) / x)
                + math.asin(x)) / math.pi

    right = []
    for k in range(n // 2):     # F(x) = 1/2 - (k + 1/2)/n on x > 0
        q, lo, hi = 0.5 - (k + 0.5) / n, 0.0, 1.0
        while True:
            mid = (lo + hi) / 2
            if not lo < mid < hi:
                break
            lo, hi = (mid, hi) if f(mid) < q else (lo, mid)
        right.append(mid)
    return [-x for x in right] + [0.0] * (n % 2) + right[::-1]


def psi_cdf(x, prec: int):
    """CDF of the equilibrium measure on [-1,1]."""
    with workprec(prec):
        x = mpf(x)
        if abs(x) > 1:
            raise DomainError("psi_cdf domain is [-1,1]")
        half = _primitive(mpc(abs(x))).real
        v = mpf(1) / 2 + half if x >= 0 else mpf(1) / 2 - half
    return round_to(v, prec)


def ell_const(prec: int):
    """Lagrange multiplier of the equilibrium problem: -2 - 2 log 2."""
    with workprec(prec):
        v = -2 - 2 * mp.ln(2)
    return round_to(v, prec)


def g_at(z, w):
    """g at z != 0 with Re z >= 0, its limit from above on the real axis,
    at the ambient precision from w = (z^2-1)^(1/2) (sqrt_offcut):
    phi = i pi integral_z^1 psi on the closed first quadrant (phase_terms
    at s = -i w) and g(conj z) = conj g(z).  The terms i pi F and pi z/2
    cancel down to ~log z, so the caller's guard bits must grow with
    log2|z|."""
    if z.imag < 0:
        return mp.conj(g_at(mp.conj(z), mp.conj(w)))
    i = mpc(0, 1)
    return (i * phase_terms(z, -i * w)[1] + mp.pi * z / 2
            - 1 - mp.ln(2))   # ell/2 = -1 - log 2


def _g(z, prec: int):
    """g at z off (-oo, 1], or its limit from above on the real axis:
    g(conj z) = conj g(z), g_at on the closed first quadrant and
    g(z) = conj g(-conj z) + i pi on the second (psi is even);
    g(0) = i pi/2 + ell/2."""
    with workprec(prec, guard=GUARD_BITS + max(0, mp.mag(z))):
        if z.imag < 0:
            return mp.conj(_g(mp.conj(z), prec))
        q = z if z.real >= 0 else -mp.conj(z)
        v = g_at(q, sqrt_offcut(q)) if q else mpc(-1 - mp.ln(2), mp.pi / 2)
        if z.real < 0:
            v = mp.conj(v) + mpc(0, mp.pi)
    return round_to(v, prec)


def g_fn(z, prec: int):
    """Log potential integral(log(z-x) psi(x) dx); analytic off (-oo, 1]."""
    with workprec(prec):
        z = mpc(z)
        if z.imag == 0 and z.real <= 1:
            raise DomainError("g is cut along (-oo, 1]; "
                              "use verify.g_boundary for limits")
    return _g(z, prec)


def phi_imag_side(y, side: str, prec: int):
    """phi on the imaginary axis z=iy from the 'left' or 'right' half plane.

    With the axis oriented upward, the left half plane is the + side.
    """
    sign = {"left": 1, "right": -1}[side]
    with workprec(prec):
        y = mpf(y)
        if y == 0:
            raise DomainError("phi is singular at the origin")
        z = mpc(0, y)
        v = g_fn(z, prec) + sign * mp.pi * z / 2 - ell_const(prec) / 2
    return round_to(v, prec)


def imag_axis_terms(s):
    """(r, L, Re phi) at z = is, s > 0 an mpf, at the ambient precision:
    r = sqrt(1+s^2), L = log((1+r)/s) and Re phi = s L + asinh s."""
    r = mp.sqrt(1 + s * s)
    big_l = mp.log((1 + r) / s)
    return r, big_l, s * big_l + mp.asinh(s)


def re_phi_imag_axis(s, prec: int):
    """Re phi on the imaginary axis at distance s>0 from 0: pi Im F(is).

    Evaluated as the real closed form -s log s + s log(1+sqrt(1+s^2)) +
    log(s+sqrt(1+s^2)), the last term as asinh s (imag_axis_terms);
    bounded below by s log(1/s).
    """
    with workprec(prec):
        s = mpf(s)
        if s <= 0:
            raise DomainError("s must be positive")
        v = imag_axis_terms(s)[2]
    return round_to(v, prec)


def theta_n(z, n: int, prec: int):
    """Oscillation phase: n pi integral_z^1 psi + arccos(z)/4 - pi/4 in
    closed form (theta_terms); real-valued on (0,1)."""
    with workprec(prec):
        z = mpc(z)
        if z.real <= 0:
            raise DomainError("theta_n requires Re z > 0")
        if z.imag == 0 and z.real >= 1:
            raise DomainError("theta_n is cut along [1, oo)")
        v = theta_terms(z, n, sqrt_onecut(z))[0]
        if z.imag == 0:
            v = v.real
    return round_to(v, prec)


def epsilon_n(n: int, nu, prec: int):
    """Master error scale n^(nu-1/2) / (log n)^(nu+1/2)."""
    if n < 2:
        raise ValueError("error scale defined for n >= 2")
    with workprec(prec):
        nu = mpf(nu)
        v = mpf(n) ** (nu - mpf(1) / 2) / mp.log(n) ** (nu + mpf(1) / 2)
    return round_to(v, prec)
