"""Equilibrium measure for the external field pi*|x| and its derived
objects: the log-potential g, the Lagrange constant, the phase function
phi, and the oscillation phase theta_n.

The measure has density psi(x) = log((1+sqrt(1-x^2))/|x|)/pi on [-1,1];
it is even, integrates to one, diverges logarithmically at the origin and
vanishes like a square root at the edges.  All quadrature goes through the
tanh-sinh engine with ranges split at the singular points, to its default
target 2^-(prec/4); every function takes its working precision in bits.
"""

from __future__ import annotations

from mpmath import mp, mpc, mpf

from .branches import arccos_branch, sqrt_onecut
from .mpfun import DomainError, round_to, workprec
from .quadrature import quad_ts

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


def _cdf_half(t, prec: int):
    """integral of psi over [0, t] for t in [0, 1], closed antiderivative."""
    with workprec(prec):
        t = mpf(t)
        if t == 0:
            return mpf(0)
        if t == 1:
            return mpf(1) / 2
        return (t * mp.log((1 + mp.sqrt(1 - t * t)) / t) + mp.asin(t)) / mp.pi


def psi_cdf(x, prec: int = DEFAULT_PREC):
    """CDF of the equilibrium measure on [-1,1]."""
    with workprec(prec):
        x = mpf(x)
        if abs(x) > 1:
            raise DomainError("psi_cdf domain is [-1,1]")
        half = _cdf_half(abs(x), prec)
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


def g_fn(z, prec: int = DEFAULT_PREC):
    """Log potential integral(log(z-x) psi(x) dx); analytic off (-oo, 1]."""
    with workprec(prec):
        z = mpc(z)
        if z.imag == 0 and z.real <= 1:
            raise DomainError("g is cut along (-oo, 1]; "
                              "use g_boundary for limits")

        def f(x):
            return mp.log(z - x) * psi_real(x, prec + 64)

        v, _ = quad_ts(f, [-1, 0, 1], prec)
    return round_to(v, prec)


def g_log_abs(x, prec: int = DEFAULT_PREC):
    """integral(log|x-t| psi(t) dt) for real x (the shared real part of g+-)."""
    with workprec(prec):
        x = mpf(x)
        points = sorted({mpf(-1), mpf(0), mpf(1), x}) \
            if -1 < x < 1 else [mpf(-1), mpf(0), mpf(1)]

        def f(t):
            return mp.log(abs(x - t)) * psi_real(t, prec + 64)

        v, _ = quad_ts(f, points, prec)
    return round_to(v, prec)


def g_boundary(x, side: int, prec: int = DEFAULT_PREC):
    """One-sided boundary value of g on the real axis.

    side=+1 approaches from the upper half plane, side=-1 from below.
    For x < 1 the imaginary part is +- pi (1 - cdf(x)) with cdf clamped
    outside [-1,1]; for x >= 1 both sides coincide.
    """
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    with workprec(prec):
        x = mpf(x)
        gr = g_log_abs(x, prec)
        xc = min(max(x, mpf(-1)), mpf(1))
        tail = 1 - psi_cdf(xc, prec)
        v = gr + side * mpc(0, 1) * mp.pi * tail
    return round_to(v, prec)


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
    """One-sided value of phi on (-1,1); purely imaginary up to quadrature."""
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
    """Re phi on the imaginary axis at distance s>0 from 0 (closed form).

    Equals -s log s + s log(1+sqrt(1+s^2)) + log(s+sqrt(1+s^2)); bounded
    below by s log(1/s).
    """
    with workprec(prec):
        s = mpf(s)
        if s <= 0:
            raise DomainError("s must be positive")
        r = mp.sqrt(1 + s * s)
        v = -s * mp.log(s) + s * mp.log(1 + r) + mp.log(s + r)
    return round_to(v, prec)


def theta_n(z, n: int, prec: int = DEFAULT_PREC):
    """Oscillation phase: n pi integral_z^1 psi + arccos(z)/4 - pi/4.

    The path is the straight segment from z to 1, which stays inside
    {Re > 0} \\ [1, oo) for the admissible z; real-valued on (0,1).
    """
    with workprec(prec):
        z = mpc(z)
        if z.real <= 0:
            raise DomainError("theta_n requires Re z > 0")
        if z.imag == 0 and z.real >= 1:
            raise DomainError("theta_n is cut along [1, oo)")
        real_path = z.imag == 0
        if real_path:
            x = z.real

            def f(s):
                return psi_real(s, prec + 64)

            integral, _ = quad_ts(f, [x, 1], prec)
        else:
            w = 1 - z

            def f(t):
                return psi_complex(z + t * w, prec + 64)

            integral, _ = quad_ts(f, [0, 1], prec)
            integral = integral * w
        v = n * mp.pi * integral + arccos_branch(z) / 4 - mp.pi / 4
        if real_path:
            v = mpc(v).real
    return round_to(v, prec)


def epsilon_n(n: int, nu, prec: int = DEFAULT_PREC):
    """Master error scale n^(nu-1/2) / (log n)^(nu+1/2)."""
    if n < 2:
        raise ValueError("error scale defined for n >= 2")
    with workprec(prec):
        nu = mpf(nu)
        v = mpf(n) ** (nu - mpf(1) / 2) / mp.log(n) ** (nu + mpf(1) / 2)
    return round_to(v, prec)


def decay_integral(alpha, n: int, prec: int = DEFAULT_PREC):
    """integral_0^(1/e) y^alpha exp(-4 n y log(1/y)) dy (trend checks)."""
    with workprec(prec):
        alpha = mpf(alpha)

        def f(y):
            return y ** alpha * mp.exp(4 * n * y * mp.log(y))

        v, _ = quad_ts(f, [0, mp.exp(-1)], prec)
    return round_to(v, prec)
