"""Numerical evaluators for the local small-norm machinery on the
imaginary segment: the jump entries j1/j2, the Bessel-ratio shape bounds,
the kernel functions eta1/eta2 with their cutoff, and the operator-norm
integrals whose decay certifies the local analysis.

The kernels come in mirrored pairs, |j1(iy)| with |j2(-iy)| and
|eta1(iy)| with |eta2(-iy)|, from one real pass per axis point y > 0
(_eta_moduli): on the axis D1 and D2 have real closed forms, so each
modulus is one exponential, rounded once, within 2^-(prec-4) relative of
d1n and d2 composed (verify.eta_moduli_by_parts).  A point where the
cutoff is 0, its tail below 2^-(prec+1) included, costs the cutoff value
alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from .equilibrium import imag_axis_terms, phi_imag_side, re_phi_imag_axis
from .mpfun import (DomainError, besseljy_real, require_prec, round_to,
                    workprec)
from .parametrix import d1_grid, w_pm_imag
from .quadrature import quad_ts


with workprec(128, guard=0):
    RHO_DEFAULT = mpf("0.4")
    EPS_DEFAULT = mpf("0.12")   # < min(1/(2e), rho/3) for rho = 0.4
CHI_PROFILE = "smoothstep-exp"


@dataclass(frozen=True)
class CutoffChi:
    """Smooth bump on the imaginary axis: identically 1 within |y| <= eps,
    identically 0 beyond 2*eps, exp(-1/t)-smoothstep between; eps is the
    construction's constant EPS_DEFAULT.

    chi(y, prec) has absolute accuracy 2^-prec: the bump lies in [0, 1],
    so a value below 2^-(prec+1) is returned as exact 0, which spares the
    small-norm kernels every node of the vanishing tail next to 2*eps.
    """

    eps = EPS_DEFAULT

    def __call__(self, y, prec: int):
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
        v = round_to(v, prec)
        return v if v >= mpf(2) ** -(prec + 1) else mpf(0)


def _axis_y(y):
    """y at the caller's working precision; the kernels need y > 0."""
    y = mpf(y)
    if y <= 0:
        raise DomainError("y must be positive")
    return y


def _axis_parts(y, n: int, nu, prec: int):
    """(a1, a2, r, L, Re phi) at z = iy, inside workprec(prec): a1 = A
    |J_-nu| and a2 = A |J_nu| at n pi y, A = 4 / (sqrt(2n) pi (J_nu^2 +
    Y_nu^2)) (|J_-nu| = |J_nu cos nu pi - Y_nu sin nu pi|, and the 4 fits
    j1_direct's assembly), and r, L, Re phi from imag_axis_terms."""
    j_plus, j_minus, y_nu = besseljy_real(nu, n * mp.pi * y, prec + 16)
    amp = 4 / (mp.sqrt(2 * n) * mp.pi * (j_plus * j_plus + y_nu * y_nu))
    return (amp * abs(j_minus), amp * abs(j_plus), *imag_axis_terms(y))


def _j_moduli(y, n: int, nu, prec: int):
    """(|j1(iy)|, |j2(-iy)|) = (a1, a2) e^(-2n Re phi), see _axis_parts."""
    with workprec(prec):
        a1, a2, _, _, re_phi = _axis_parts(_axis_y(y), n, mpf(nu), prec)
        decay = mp.exp(-2 * n * re_phi)
        v1, v2 = a1 * decay, a2 * decay
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


def bessel_ratio_bounds_check(s, nu, prec: int):
    """Both sides of the two Bessel-ratio shape bounds with constants 1.

    lhs1 = |J cos(nu pi) - Y sin(nu pi)| / (J^2+Y^2) = |J_-nu| / (J^2+Y^2)
    against rhs1 = s^nu (1+s^(1-2nu)) / (1+s^(1/2-nu)); lhs2 =
    |J|/(J^2+Y^2) against rhs2 = s^(3nu) (1+s^(1-2nu)) / (1+s^(1/2+nu)).
    """
    with workprec(prec):
        s = mpf(s)
        if s <= 0:
            raise DomainError("s must be positive")
        nu = mpf(nu)
        j_plus, j_minus, y_nu = besseljy_real(nu, s, prec + 16)
        den = j_plus * j_plus + y_nu * y_nu
        lhs1 = abs(j_minus) / den
        lhs2 = abs(j_plus) / den
        rhs1 = s ** nu * (1 + s ** (1 - 2 * nu)) / (1 + s ** (mpf(1) / 2 - nu))
        rhs2 = s ** (3 * nu) * (1 + s ** (1 - 2 * nu)) \
            / (1 + s ** (mpf(1) / 2 + nu))
    return {"lhs1": round_to(lhs1, prec), "rhs1": round_to(rhs1, prec),
            "lhs2": round_to(lhs2, prec), "rhs2": round_to(rhs2, prec)}


def _eta_moduli(y, nu, chi: CutoffChi, grid):
    """(|eta1(iy)|, |eta2(-iy)|) = |j| chi |D1 D2|^2 at iy and -iy, grid
    being d1_grid(n, nu, prec).  Its read is cauchy(iy) = 2iy S, S real,
    so |D1(+-iy)|^2 = e^(-r Im cauchy/pi); D2(iy) = (y/(1+r))^(nu/2), so
    |D2(+-iy)|^2 = e^(-+nu L).  Each modulus is a chi e^(E -+ nu L), with
    E = -2n Re phi - r Im cauchy/pi (_axis_parts)."""
    n, prec = grid.n, grid.prec
    c = chi(y, prec)
    if c == 0:
        return mpf(0), mpf(0)
    with workprec(prec):
        y, nu = _axis_y(y), mpf(nu)
        a1, a2, r, big_l, re_phi = _axis_parts(y, n, nu, prec)
        e = -2 * n * re_phi - r * grid.cauchy(mpc(0, y)).imag / mp.pi
        v1 = a1 * c * mp.exp(e - nu * big_l)
        v2 = a2 * c * mp.exp(e + nu * big_l)
    return round_to(v1, prec), round_to(v2, prec)


def eta1_modulus(y, n: int, nu, chi: CutoffChi, prec: int):
    """|eta1(iy)| on the positive imaginary axis, see _eta_moduli."""
    return _eta_moduli(y, nu, chi, d1_grid(n, nu, prec))[0]


def eta2_modulus(y, n: int, nu, chi: CutoffChi, prec: int):
    """|eta2(-iy)| on the negative imaginary axis (y > 0)."""
    return _eta_moduli(y, nu, chi, d1_grid(n, nu, prec))[1]


def eta_bound_check(y, n: int, nu, prec: int):
    """Kernel moduli against the predicted shape bounds with constants 1:
    bound1 = y^nu e^(-2n Re phi), bound2 = (n^(2nu) y^nu + n y^(1-nu))
    e^(-2n Re phi)."""
    with workprec(prec):
        y = mpf(y)
        if not 0 < y <= RHO_DEFAULT:
            raise DomainError("y must lie in (0, rho]")
        # the caller's nu, so D1 reads the grid cached under its key
        e1, e2 = _eta_moduli(y, nu, CutoffChi(), d1_grid(n, nu, prec))
        nu = mpf(nu)
        decay = mp.exp(-2 * n * re_phi_imag_axis(y, prec + 16))
        b1 = y ** nu * decay
        b2 = (n ** (2 * nu) * y ** nu + n * y ** (1 - nu)) * decay
    return {"eta1_mod": e1, "bound1": round_to(b1, prec),
            "eta2_mod": e2, "bound2": round_to(b2, prec)}


def k_norm_bounds(n: int, nu, prec: int):
    """Hilbert-Schmidt style operator-norm bounds

    k1 = (integral_0^(2 eps) |eta1(iy)|^2 / y dy)^(1/2), same for k2, and
    their product, which must decay like a power of 1/log n.  The
    integrals run to 2^-(prec/8), with the cutoff CutoffChi().
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    require_prec(prec)
    chi = CutoffChi()
    out = {}
    with workprec(prec):
        hi = 2 * chi.eps
        # integrand peaks near 1/(n log n); give the quadrature that split
        peak = mpf(1) / (n * max(1, mp.log(n)))
        points = sorted({mpf(0), +peak, +min(4 * peak, hi), hi})
        # node y -> both moduli; the two integrals share nodes and one
        # grid, fetched for the caller's nu, the key it is cached under
        grid, pairs = d1_grid(n, nu, prec), {}
        for key, side in (("k1_bound", 0), ("k2_bound", 1)):
            def f(y):
                if y not in pairs:
                    pairs[y] = _eta_moduli(y, nu, chi, grid)
                e = pairs[y][side]
                return e * e / y

            val, _ = quad_ts(f, points, prec, target=mpf(2) ** (-prec // 8))
            out[key] = round_to(mp.sqrt(abs(val)), prec)
        out["product"] = round_to(out["k1_bound"] * out["k2_bound"], prec)
    return out
