"""Szego functions, the cut-normalized matrix model, and the outer/inner
asymptotic evaluators for the rescaled polynomials.

The first Szego factor is a Cauchy-type integral of log W_n against the
Chebyshev kernel; it is evaluated either through a frozen per-(n, nu)
quadrature grid (fast, cached, bit-reproducible) or adaptively.  The
second factor and the matrix model are closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from mpmath import mp, mpc, mpf

from .branches import beta_quartic, f_exterior, sqrt_offcut, sqrt_onecut
from .equilibrium import epsilon_n, g_fn, psi_complex, theta_n
from .mpfun import DomainError, require_prec, round_to, workprec
from .quadrature import quad_ts

GRID_SPLIT_LEVELS = {192: 6, 448: 7}


class Regime(Enum):
    OUTER = "outer"
    INNER = "inner"


@dataclass(frozen=True)
class AsymptoticPrediction:
    value: mpc
    error_scale: mpf   # the formula's own O-term magnitude
    regime: Regime


def dist_to_interval(z, prec: int = 96):
    """Distance from z to [-1,1]."""
    with workprec(prec):
        z = mpc(z)
        if -1 <= z.real <= 1:
            v = abs(z.imag)
        else:
            v = min(abs(z - 1), abs(z + 1))
    return round_to(v, prec)


def _on_cut(z) -> bool:
    return z.imag == 0 and -1 <= z.real <= 1


def w_weight(z, n: int, nu, prec: int):
    """Normalized weight sqrt(2n) K_nu(+-n pi z) e^(+-n pi z) per half plane.

    Real on the real axis (positive), tends to z^(-1/2); jumps across the
    imaginary axis (use w_pm_imag for the one-sided limits there).
    """
    with workprec(prec):
        z = mpc(z)
        if z.real == 0:
            raise DomainError("weight jumps across the imaginary axis")
        nu = mpf(nu)
        sign = 1 if z.real > 0 else -1
        arg = sign * n * mp.pi * z
        v = mp.sqrt(2 * n) * mp.besselk(nu, arg) * mp.exp(arg)
        if z.imag == 0:
            v = mpc(v).real
    return round_to(v, prec)


def w_pm_imag(y, side: str, n: int, nu, prec: int):
    """One-sided limits of the weight on the imaginary axis at z = iy.

    side '+' is the limit from the left half plane (upward orientation),
    '-' from the right.  Valid for y != 0 of either sign.
    """
    sgn = {"+": 1, "-": -1}[side]
    with workprec(prec):
        y = mpf(y)
        if y == 0:
            raise DomainError("weight is singular at the origin")
        arg = -sgn * n * mp.pi * mpc(0, 1) * y
        v = mp.sqrt(2 * n) * mp.besselk(mpf(nu), arg) * mp.exp(arg)
    return round_to(v, prec)


def szego_power(z, alpha, prec: int):
    """Szego function of the pure power weight |x|^alpha off [-1,1]:
    (z / (z + (z^2-1)^(1/2)))^(alpha/2)."""
    with workprec(prec):
        z = mpc(z)
        if _on_cut(z):
            raise DomainError("szego_power is cut along [-1,1]")
        v = (z / f_exterior(z)) ** (mpf(alpha) / 2)
    return round_to(v, prec)


def d2(z, nu, prec: int):
    """Phase Szego factor ((sqrt(z^2-1)-i)/(sqrt(z^2-1)+i))^(nu/4).

    The base is formed through (s-i)(s+i) = z^2, computing whichever of
    s -+ i is cancellation-free; near the origin the factor behaves like
    z^(nu/2) above the cut and z^(-nu/2) below.
    """
    with workprec(prec):
        z = mpc(z)
        if _on_cut(z):
            raise DomainError("d2 is cut along [-1,1]")
        s = sqrt_offcut(z)
        up, dn = s - mpc(0, 1), s + mpc(0, 1)
        if abs(up) >= abs(dn):
            base = up * up / (z * z)
        else:
            base = z * z / (dn * dn)
        v = base ** (mpf(nu) / 4)
    return round_to(v, prec)


def d2_psi_consistency(z, nu, prec: int):
    """Defect of the quadrant identity log d2 = -+ nu pi psi/2 -+ nu pi i/4.

    For Re z < 0 the density continuation is taken even, psi(-z).
    """
    with workprec(prec):
        z = mpc(z)
        if z.real == 0 or z.imag == 0:
            raise DomainError("consistency check needs Re z != 0 and "
                              "Im z != 0")
        nu = mpf(nu)
        psi = psi_complex(z if z.real > 0 else -z, prec + 16)
        s_re = 1 if z.imag < 0 else -1      # sign of the psi term
        s_im = 1 if z.real < 0 else -1      # sign of the i pi/4 term
        rhs = s_re * nu * mp.pi / 2 * psi + s_im * nu * mp.pi * mpc(0, 1) / 4
        v = abs(mp.log(d2(z, nu, prec + 16)) - rhs)
    return round_to(v, prec)


def n0_matrix(z, prec: int):
    """Cut-normalized 2x2 matrix model: unit determinant, identity at
    infinity, rotation jump on (-1,1)."""
    with workprec(prec):
        z = mpc(z)
        if _on_cut(z):
            raise DomainError("matrix model is cut along [-1,1]")
        b = beta_quartic(z)
        a11 = (b + 1 / b) / 2
        a12 = (b - 1 / b) / (2 * mpc(0, 1))
        m = mp.matrix([[a11, a12], [-a12, a11]])
    old = mp.prec
    mp.prec = prec
    try:
        return m.apply(lambda t: +t)
    finally:
        mp.prec = old


def _k_log_weight(t, n: int, nu, prec: int):
    """log W_n(t) / sqrt(1-t^2) for t in (0,1); W_n is even in t."""
    with workprec(prec):
        arg = n * mp.pi * t
        logw = mp.log(2 * n) / 2 + mp.log(mp.besselk(mpf(nu), arg)) + arg
        return logw / mp.sqrt((1 - t) * (1 + t))


@dataclass(frozen=True)
class D1Grid:
    """Frozen composite tanh-sinh grid for the log-weight Cauchy integral.

    Stores positive-axis nodes and premultiplied log-weight values; the
    kernel is folded for the even integrand.  Immutable snapshot: cached
    and freshly built grids are bit-identical.
    """

    n: int
    nu: mpf
    prec: int
    level: int
    nodes: tuple      # t_i in (0,1)
    wk: tuple         # w_i * h * k(t_i), trapezoidal factor included

    def cauchy(self, z):
        """integral over [-1,1] of k(t)/(z-t) dt via the folded grid."""
        with workprec(self.prec, guard=32):
            total = mp.zero
            for t, wk in zip(self.nodes, self.wk):
                total += wk * (1 / (z - t) + 1 / (z + t))
            return +total


def _grid_level(prec: int) -> int:
    for cutoff, level in GRID_SPLIT_LEVELS.items():
        if prec <= cutoff:
            return level
    return 8


def build_d1_grid(n: int, nu, prec: int) -> D1Grid:
    """Construct the frozen grid; splits at the weight's character change
    x* = 1/(n pi) and at the endpoints."""
    require_prec(prec)
    level = _grid_level(prec)
    from .quadrature import _nodes_new
    nodes, wk = [], []
    # guard must cover the closest node offsets ~2^-(prec+48) near t=1
    with workprec(prec, guard=64):
        nu = mpf(nu)
        xstar = 1 / (n * mp.pi)
        h_final = mpf(2) ** (-level)
        for a, b in [(mpf(0), +xstar), (+xstar, mpf(1))]:
            width = b - a
            for lev in range(level + 1):
                for offset, w in _nodes_new(lev, prec):
                    if lev == 0 and offset == mpf(1) / 2:
                        ts = (a + width / 2,)
                    else:
                        ts = (a + width * offset, b - width * offset)
                    for t in ts:
                        nodes.append(t)
                        wk.append(w * h_final * width / 2
                                  * _k_log_weight(t, n, nu, prec))
    return D1Grid(n=n, nu=nu, prec=prec, level=level,
                  nodes=tuple(nodes), wk=tuple(wk))


def _get_grid(n: int, nu, prec: int) -> D1Grid:
    """The grid for (n, nu, prec), cached on nu as build_d1_grid reads it."""
    with workprec(prec, guard=64):
        nu = mpf(nu)
    return _cached_grid(n, nu, prec)


@lru_cache(maxsize=32)
def _cached_grid(n: int, nu: mpf, prec: int) -> D1Grid:
    return build_d1_grid(n, nu, prec)


def d1n(z, n: int, nu, prec: int, grid: D1Grid | None = None,
        adaptive: bool = False):
    """First Szego factor for the normalized weight, off [-1,1].

    Default path sums over the cached frozen grid; adaptive=True runs the
    tanh-sinh engine per call, used as the independent route in tests.
    """
    with workprec(prec, guard=32):
        z = mpc(z)
        if _on_cut(z):
            raise DomainError("d1n is cut along [-1,1]")
        if adaptive:
            nu = mpf(nu)
            points = [mpf(0), 1 / (n * mp.pi), mpf(1)]

            def f(t):
                k = _k_log_weight(t, n, nu, prec + 32)
                return k * (1 / (z - t) + 1 / (z + t))

            integral, _ = quad_ts(f, points, prec)
        else:   # the caller's nu, so every caller shares the cached grid
            integral = (grid or _get_grid(n, nu, prec)).cauchy(z)
        v = mp.exp(sqrt_offcut(z) / (2 * mp.pi) * integral)
    return round_to(v, prec)


def d_infty_n(n: int, nu, prec: int):
    """Limit of the first Szego factor at infinity (tends to 2^(1/4))."""
    with workprec(prec, guard=32):
        nu = mpf(nu)

        def f(t):
            return _k_log_weight(t, n, nu, prec + 32)

        integral, _ = quad_ts(f, [mpf(0), 1 / (n * mp.pi), mpf(1)], prec)
        v = mp.exp(integral / mp.pi)   # (1/2pi) * folded even integral
    return round_to(v, prec)


def outer_eval(z, n: int, nu, prec: int) -> AsymptoticPrediction:
    """Leading outer approximation of the rescaled polynomial off [-1,1].

    value = exp(n g) * (z(z+s)/(2(z^2-1)))^(1/4) * (phase factor)^(-nu/4);
    error_scale is the master scale epsilon_n.
    """
    with workprec(prec):
        z = mpc(z)
        nu = mpf(nu)
        if dist_to_interval(z, prec) < mpf("0.2"):
            raise DomainError("outer regime needs dist(z, [-1,1]) >= 0.2")
        g = g_fn(z, prec)
        b = beta_quartic(z)
        n011 = (b + 1 / b) / 2
        pref = (mpf(2) ** (mpf(1) / 4) * n011
                * szego_power(z, mpf(1) / 2, prec + 16) / d2(z, nu, prec + 16))
        value = mp.exp(n * g) * pref
    return AsymptoticPrediction(value=round_to(value, prec),
                                error_scale=epsilon_n(n, nu, prec),
                                regime=Regime.OUTER)


def _check_inner_domain(z):
    if abs(z.imag) > mpf("0.1") or abs(z.real) > 1:
        raise DomainError("point outside the validated oscillatory box")
    delta = mpf("0.2")
    if abs(z) < delta or abs(z - 1) < delta or abs(z + 1) < delta:
        raise DomainError("point inside an excluded disk of the "
                          "oscillatory regime")


def inner_terms(z, n: int, nu, prec: int):
    """Prefactor and the two oscillatory exponential terms at Re z > 0.

    Returns (prefactor, t_plus, t_minus) with the approximation equal to
    prefactor * (t_plus + t_minus) to leading order.
    """
    with workprec(prec):
        z = mpc(z)
        if z.real <= 0:
            raise DomainError("inner_terms requires Re z > 0; reflect first")
        nu = mpf(nu)
        pref = (z ** (mpf(1) / 4) * mp.exp(nu * mp.pi * mpc(0, 1) / 4)
                * mp.exp(n * mp.pi * z / 2)
                / (mpf(2) ** (mpf(1) / 4) * (2 * mp.e) ** n
                   * sqrt_onecut(z) ** (mpf(1) / 2)))
        expo = nu * mp.pi / 2 * psi_complex(z, prec + 16) \
            + mpc(0, 1) * theta_n(z, n, prec)
        tp = mp.exp(expo)
        tm = 1 / tp
    return round_to(pref, prec), round_to(tp, prec), round_to(tm, prec)


def inner_eval(z, n: int, nu, prec: int) -> AsymptoticPrediction:
    """Oscillatory-regime approximation near (-1,1).

    Reflection handles Re z < 0 through the conjugation symmetry of the
    polynomials (with the degree-parity sign).  error_scale combines the
    multiplicative log n/n band on each oscillatory term with the additive
    epsilon_n term.
    """
    with workprec(prec):
        z = mpc(z)
        _check_inner_domain(z)
        reflect = z.real < 0
        pref, tp, tm = inner_terms(-mp.conj(z) if reflect else z, n, nu, prec)
        value = pref * (tp + tm)
        if reflect:
            value = mp.conj(value) * (-1) ** n
        scale = 3 * mp.log(n) / n + epsilon_n(n, nu, prec)
    return AsymptoticPrediction(value=round_to(value, prec),
                                error_scale=round_to(scale, prec),
                                regime=Regime.INNER)


def zero_condition_defect(z, n: int, nu, prec: int):
    """|Re(nu pi psi/2) - Im theta_n|: small iff the two oscillatory terms
    can cancel, the leading-order zero condition."""
    with workprec(prec):
        z = mpc(z)
        if z.real < 0:
            z = -mp.conj(z)
        if z.real == 0:
            raise DomainError("zero condition undefined on the imaginary "
                              "axis")
        nu = mpf(nu)
        v = abs((nu * mp.pi / 2 * psi_complex(z, prec + 16)).real
                - mpc(theta_n(z, n, prec)).imag)
    return round_to(v, prec)
