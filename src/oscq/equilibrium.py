"""Equilibrium measure for the external field pi*|x| and its derived
objects: the log-potential g, the Lagrange constant, the phase function
phi, and the oscillation phase theta_n.

The measure has density psi(x) = log((1+sqrt(1-x^2))/|x|)/pi on [-1,1];
it is even, integrates to one, diverges logarithmically at the origin and
vanishes like a square root at the edges.  Everything derived from it
goes through one closed antiderivative F of psi (Saff & Totik,
Logarithmic Potentials with External Fields, ch. IV): the CDF is
1/2 +- F(|x|), phi = i pi (1/2 - F) in the first quadrant, g follows by
reflection, and theta_n = n pi (1/2 - F) + arccos(z)/4 - pi/4.  Every
function takes its working precision in bits.
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf

from .branches import arccos_branch, sqrt_offcut, sqrt_onecut
from .mpfun import GUARD_BITS, DomainError, round_to, workprec

DEFAULT_PREC = 192


def psi_real(x, prec: int = DEFAULT_PREC):
    """Limiting zero density on [-1,1]; even, >= 0, log-divergent at 0."""
    with workprec(prec):
        x = mpf(x)
        if x == 0:
            raise DomainError("psi has a logarithmic singularity at x = 0")
        if abs(x) > 1:
            raise DomainError("psi is supported on [-1,1]")
        v = mp.log((1 + mp.sqrt(1 - x * x)) / abs(x)) / mp.pi
    return round_to(v, prec)


def psi_complex(z, prec: int = DEFAULT_PREC):
    """Analytic continuation of the density to {Re z > 0} \\ [1, oo)."""
    with workprec(prec):
        z = mpc(z)
        if z.real <= 0:
            raise DomainError("psi continuation requires Re z > 0")
        if z.imag == 0 and z.real >= 1:
            raise DomainError("psi continuation is cut along [1, oo)")
        v = mp.log((1 + sqrt_onecut(z)) / z) / mp.pi
    return round_to(v, prec)


def _primitive(z):
    """F(z) = integral_0^z psi = (z log((1+(1-z^2)^(1/2))/z) + arcsin z)/pi
    for Re z >= 0 at the ambient precision; F(0) = 0, F(1) = 1/2.  Above
    the real axis, (1-z^2)^(1/2) = -i w and arcsin z = pi/2 + i log(z+w)
    with w = (z^2-1)^(1/2) analytic across (1, oo), so [1, oo) gets the
    limit from Im z > 0; below, F(conj z) = conj F(z)."""
    if z.imag < 0:
        return mp.conj(_primitive(mp.conj(z)))
    if z == 0:
        return mpc(0)
    w = sqrt_offcut(z)
    i = mpc(0, 1)
    return mpf(1) / 2 + (z * mp.log((1 - i * w) / z)
                         + i * mp.log(z + w)) / mp.pi


def psi_cdf(x, prec: int = DEFAULT_PREC):
    """CDF of the equilibrium measure on [-1,1]."""
    with workprec(prec):
        x = mpf(x)
        if abs(x) > 1:
            raise DomainError("psi_cdf domain is [-1,1]")
        half = _primitive(mpc(abs(x))).real
        v = mpf(1) / 2 + half if x >= 0 else mpf(1) / 2 - half
    return round_to(v, prec)


def psi_quantile(q, prec: int = DEFAULT_PREC):
    """Inverse CDF by bisection (CDF is strictly increasing on [-1,1])."""
    with workprec(prec):
        q = mpf(q)
        if not 0 <= q <= 1:
            raise DomainError("quantile level must be in [0,1]")
        lo, hi = mpf(-1), mpf(1)
        for _ in range(prec + 16):
            mid = (lo + hi) / 2
            if psi_cdf(mid, prec + 16) < q:
                lo = mid
            else:
                hi = mid
        return round_to((lo + hi) / 2, prec)


def ell_const(prec: int = DEFAULT_PREC):
    """Lagrange multiplier of the equilibrium problem: -2 - 2 log 2."""
    with workprec(prec):
        v = -2 - 2 * mp.ln(2)
    return round_to(v, prec)


def _g(z, prec: int):
    """g at z off (-oo, 1], or its limit from above on the real axis:
    phi = i pi (1/2 - F) on the closed first quadrant, g(conj z) = conj g(z)
    and g(z) = conj g(-conj z) + i pi (psi is even).  i pi F and pi z/2
    cancel down to ~log z, so the guard bits grow with log2|z|."""
    with workprec(prec, guard=GUARD_BITS + max(0, mp.mag(z))):
        if z.imag < 0:
            return mp.conj(_g(mp.conj(z), prec))
        q = z if z.real >= 0 else -mp.conj(z)
        v = (mpc(0, 1) * mp.pi * (mpf(1) / 2 - _primitive(q)) + mp.pi * q / 2
             - 1 - mp.ln(2))   # ell/2 = -1 - log 2
        if z.real < 0:
            v = mp.conj(v) + mpc(0, mp.pi)
    return round_to(v, prec)


def g_fn(z, prec: int = DEFAULT_PREC):
    """Log potential integral(log(z-x) psi(x) dx); analytic off (-oo, 1]."""
    with workprec(prec):
        z = mpc(z)
        if z.imag == 0 and z.real <= 1:
            raise DomainError("g is cut along (-oo, 1]; "
                              "use g_boundary for limits")
    return _g(z, prec)


def g_boundary(x, side: int, prec: int = DEFAULT_PREC):
    """One-sided boundary value of g on the real axis.

    side=+1 approaches from the upper half plane, side=-1 from below.
    For x < 1 the imaginary part is +- pi (1 - cdf(x)) with cdf clamped
    outside [-1,1]; for x >= 1 both sides coincide.
    """
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    with workprec(prec):
        v = _g(mpc(mpf(x)), prec)
        return v if side > 0 else mp.conj(v)


def phi_fn(z, prec: int = DEFAULT_PREC):
    """phi = g - V/2 - ell/2, analytic off ((-oo,1] union i R)."""
    with workprec(prec):
        z = mpc(z)
        if z.real == 0:
            raise DomainError("phi jumps across the imaginary axis; "
                              "use phi_imag_side")
        v_field = mp.pi * z if z.real > 0 else -mp.pi * z
        v = g_fn(z, prec) - v_field / 2 - ell_const(prec) / 2
    return round_to(v, prec)


def phi_boundary(x, side: int, prec: int = DEFAULT_PREC):
    """One-sided value of phi on (-1,1); purely imaginary up to rounding."""
    with workprec(prec):
        x = mpf(x)
        v = (g_boundary(x, side, prec) - mp.pi * abs(x) / 2
             - ell_const(prec) / 2)
    return round_to(v, prec)


def phi_imag_side(y, side: str, prec: int = DEFAULT_PREC):
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


def re_phi_imag_axis(s, prec: int = DEFAULT_PREC):
    """Re phi on the imaginary axis at distance s>0 from 0: pi Im F(is).

    Equals -s log s + s log(1+sqrt(1+s^2)) + log(s+sqrt(1+s^2)); bounded
    below by s log(1/s).
    """
    with workprec(prec):
        s = mpf(s)
        if s <= 0:
            raise DomainError("s must be positive")
        v = mp.pi * _primitive(mpc(0, s)).imag
    return round_to(v, prec)


def theta_n(z, n: int, prec: int = DEFAULT_PREC):
    """Oscillation phase: n pi integral_z^1 psi + arccos(z)/4 - pi/4,
    with the integral 1/2 - F(z) in closed form; real-valued on (0,1)."""
    with workprec(prec):
        z = mpc(z)
        if z.real <= 0:
            raise DomainError("theta_n requires Re z > 0")
        if z.imag == 0 and z.real >= 1:
            raise DomainError("theta_n is cut along [1, oo)")
        v = (n * mp.pi * (mpf(1) / 2 - _primitive(z))
             + arccos_branch(z) / 4 - mp.pi / 4)
        if z.imag == 0:
            v = v.real
    return round_to(v, prec)


def epsilon_n(n: int, nu, prec: int = DEFAULT_PREC):
    """Master error scale n^(nu-1/2) / (log n)^(nu+1/2)."""
    if n < 2:
        raise ValueError("error scale defined for n >= 2")
    with workprec(prec):
        nu = mpf(nu)
        v = mpf(n) ** (nu - mpf(1) / 2) / mp.log(n) ** (nu + mpf(1) / 2)
    return round_to(v, prec)
