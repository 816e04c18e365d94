"""Numerical evaluators for the local small-norm machinery on the
imaginary segment: the jump entries j1/j2, the Bessel-ratio shape bounds,
the kernel functions eta1/eta2 with their cutoff, and the operator-norm
integrals whose decay certifies the local analysis.

The kernels are evaluated in mirrored pairs, |j1(iy)| with |j2(-iy)| and
|eta1(iy)| with |eta2(-iy)|: one Bessel pair, one cutoff value and one D1
read per axis point y > 0, D1 at -iy being conj D1(iy) by Schwarz
reflection.  The public single-kernel functions select from the pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from mpmath import mp, mpc, mpf

from .equilibrium import phi_imag_side, re_phi_imag_axis
from .mpfun import DomainError, require_prec, round_to, workprec
from .parametrix import D1Grid, _get_grid, d1n, d2, w_pm_imag
from .quadrature import quad_ts


with workprec(128, guard=0):
    RHO_DEFAULT = mpf("0.4")
    EPS_DEFAULT = mpf("0.12")   # < min(1/(2e), rho/3) for rho = 0.4
CHI_PROFILE = "smoothstep-exp"


@dataclass(frozen=True)
class CutoffChi:
    """Smooth bump on the imaginary axis: identically 1 within |y| <= eps,
    identically 0 beyond 2*eps, exp(-1/t)-smoothstep between."""

    eps: mpf = field(default_factory=lambda: EPS_DEFAULT)

    def __post_init__(self):
        with workprec(128):
            eps = mpf(self.eps)
            if not 0 < eps < min(1 / (2 * mp.e), RHO_DEFAULT / 3):
                raise ValueError(
                    "eps must satisfy 0 < eps < min(1/(2e), rho/3)")
        object.__setattr__(self, "eps", eps)

    def __call__(self, y, prec: int = 96):
        with workprec(prec):
            y = abs(mpf(y))
            if y <= self.eps:
                return mpf(1)
            if y >= 2 * self.eps:
                return mpf(0)
            t = (y - self.eps) / self.eps     # in (0,1)
            a = mp.exp(-1 / t)
            b = mp.exp(-1 / (1 - t))
            v = b / (a + b)
        return round_to(v, prec)


def _bessel_pair(s, nu, prec: int):
    with workprec(prec):
        return mp.besselj(nu, s), mp.bessely(nu, s)


def _axis_y(y):
    """y at the caller's working precision; the kernels need y > 0."""
    y = mpf(y)
    if y <= 0:
        raise DomainError("y must be positive")
    return y


def _j_moduli(y, n: int, nu, prec: int):
    """(|j1(iy)|, |j2(-iy)|) via the Hankel reduction: one pair of real
    Bessel functions at n pi y, the closed form for Re phi on the axis,
    and the numerators |J cos(nu pi) - Y sin(nu pi)| and |J|."""
    with workprec(prec):
        y = _axis_y(y)
        nu = mpf(nu)
        s = n * mp.pi * y
        jv, yv = _bessel_pair(s, nu, prec + 16)
        num = abs(jv * mp.cos(nu * mp.pi) - yv * mp.sin(nu * mp.pi))
        den = jv * jv + yv * yv
        # prefactor 4 (not 2) matches the defining jump-entry structure;
        # verified against the direct assembly in j1_direct
        amp = 4 * mp.exp(-2 * n * re_phi_imag_axis(y, prec + 16)) \
            / (mp.sqrt(2 * n) * mp.pi)
        v1 = amp * num / den
        v2 = amp * abs(jv) / den
    return round_to(v1, prec), round_to(v2, prec)


def j1_modulus(y, n: int, nu, prec: int):
    """|j1(iy)|, see _j_moduli."""
    return _j_moduli(y, n, nu, prec)[0]


def j2_modulus(y, n: int, nu, prec: int):
    """|j2(-iy)|, see _j_moduli."""
    return _j_moduli(y, n, nu, prec)[1]


def _j_jump(s, n: int, nu, prec: int):
    """The jump entry at z = is (s of either sign, already an mpf),
    assembled from one-sided weights and phase values on the axis.
    Independent of the Hankel reduction; a cross-check oracle."""
    with workprec(prec):
        nu = mpf(nu)
        phi_plus = phi_imag_side(s, "left", prec)
        phi_minus = phi_imag_side(s, "right", prec)
        ph = mp.exp(nu * mp.pi * mpc(0, 1) / 2)
        v = ph * mp.exp(-2 * n * phi_minus) / w_pm_imag(s, "-", n, nu, prec) \
            - mp.exp(-2 * n * phi_plus) / ph / w_pm_imag(s, "+", n, nu, prec)
    return round_to(v, prec)


def j1_direct(y, n: int, nu, prec: int):
    """j1(iy) from the jump-entry structure (cross-check)."""
    with workprec(prec):
        return _j_jump(_axis_y(y), n, nu, prec)


def j2_direct(y, n: int, nu, prec: int):
    """j2(-iy) = -(the j1 assembly at -iy) (cross-check)."""
    with workprec(prec):
        return -_j_jump(-_axis_y(y), n, nu, prec)


def bessel_ratio_bounds_check(s, nu, prec: int = 96):
    """Both sides of the two Bessel-ratio shape bounds with constants 1.

    lhs1 = |J cos(nu pi) - Y sin(nu pi)| / (J^2+Y^2) against
    rhs1 = s^nu (1+s^(1-2nu)) / (1+s^(1/2-nu)); lhs2 = |J|/(J^2+Y^2)
    against rhs2 = s^(3nu) (1+s^(1-2nu)) / (1+s^(1/2+nu)).
    """
    with workprec(prec):
        s = mpf(s)
        if s <= 0:
            raise DomainError("s must be positive")
        nu = mpf(nu)
        jv, yv = _bessel_pair(s, nu, prec + 16)
        den = jv * jv + yv * yv
        lhs1 = abs(jv * mp.cos(nu * mp.pi) - yv * mp.sin(nu * mp.pi)) / den
        lhs2 = abs(jv) / den
        rhs1 = s ** nu * (1 + s ** (1 - 2 * nu)) / (1 + s ** (mpf(1) / 2 - nu))
        rhs2 = s ** (3 * nu) * (1 + s ** (1 - 2 * nu)) \
            / (1 + s ** (mpf(1) / 2 + nu))
    return {"lhs1": round_to(lhs1, prec), "rhs1": round_to(rhs1, prec),
            "lhs2": round_to(lhs2, prec), "rhs2": round_to(rhs2, prec)}


def _eta_moduli(y, n: int, nu, chi: CutoffChi, prec: int,
                grid: D1Grid | None = None):
    """(|eta1(iy)|, |eta2(-iy)|) = (|j1| |D1 D2|^2 chi at iy, |j2| |D1 D2|^2
    chi at -iy).  One cutoff value, one D1 read: by Schwarz reflection
    D1(-iy) = conj D1(iy)."""
    c = chi(y, prec)
    if c == 0:
        return mpf(0), mpf(0)
    with workprec(prec):
        y = mpf(y)
        j1, j2 = _j_moduli(y, n, nu, prec)
        up, down = mpc(0, y), mpc(0, -y)
        d = d1n(up, n, nu, prec, grid=grid)
        v1 = j1 * abs(d * d2(up, nu, prec)) ** 2 * c
        v2 = j2 * abs(mp.conj(d) * d2(down, nu, prec)) ** 2 * c
    return round_to(v1, prec), round_to(v2, prec)


def eta1_modulus(y, n: int, nu, chi: CutoffChi, prec: int):
    """|eta1(iy)| on the positive imaginary axis, see _eta_moduli."""
    return _eta_moduli(y, n, nu, chi, prec)[0]


def eta2_modulus(y, n: int, nu, chi: CutoffChi, prec: int):
    """|eta2(-iy)| on the negative imaginary axis (y > 0)."""
    return _eta_moduli(y, n, nu, chi, prec)[1]


def eta_bound_check(y, n: int, nu, chi: CutoffChi, prec: int = 128):
    """Kernel moduli against the predicted shape bounds with constants 1:
    bound1 = y^nu e^(-2n Re phi), bound2 = (n^(2nu) y^nu + n y^(1-nu))
    e^(-2n Re phi)."""
    grid = _get_grid(n, nu, prec)
    with workprec(prec):
        y = mpf(y)
        if not 0 < y <= RHO_DEFAULT:
            raise DomainError("y must lie in (0, rho]")
        nu = mpf(nu)
        decay = mp.exp(-2 * n * re_phi_imag_axis(y, prec + 16))
        b1 = y ** nu * decay
        b2 = (n ** (2 * nu) * y ** nu + n * y ** (1 - nu)) * decay
        e1, e2 = _eta_moduli(y, n, nu, chi, prec, grid)
    return {"eta1_mod": e1, "bound1": round_to(b1, prec),
            "eta2_mod": e2, "bound2": round_to(b2, prec)}


def k_norm_bounds(n: int, nu, chi: CutoffChi | None = None,
                  prec: int = 128):
    """Hilbert-Schmidt style operator-norm bounds

    k1 = (integral_0^(2 eps) |eta1(iy)|^2 / y dy)^(1/2), same for k2, and
    their product, which must decay like a power of 1/log n.  The
    integrals run to 2^-(prec/8).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    require_prec(prec)
    chi = chi or CutoffChi()
    grid = _get_grid(n, nu, prec)
    out = {}
    with workprec(prec):
        nu = mpf(nu)
        hi = 2 * chi.eps
        # integrand peaks near 1/(n log n); give the quadrature that split
        peak = mpf(1) / (n * max(1, mp.log(n)))
        points = sorted({mpf(0), +peak, +min(4 * peak, hi), hi})
        pairs = {}   # node y -> both moduli; the two integrals share nodes
        for key, side in (("k1_bound", 0), ("k2_bound", 1)):
            def f(y):
                if y not in pairs:
                    pairs[y] = _eta_moduli(y, n, nu, chi, prec, grid)
                e = pairs[y][side]
                return e * e / y

            val, _ = quad_ts(f, points, prec, target=mpf(2) ** (-prec // 8))
            out[key] = round_to(mp.sqrt(abs(val)), prec)
        out["product"] = round_to(out["k1_bound"] * out["k2_bound"], prec)
    return out
