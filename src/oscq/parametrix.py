"""Szego functions, the cut-normalized matrix model, and the outer/inner
asymptotic evaluators for the rescaled polynomials.

The first Szego factor is a Cauchy-type integral of log W_n against the
Chebyshev kernel; it is evaluated either through a frozen per-(n, nu)
quadrature grid (fast, cached, bit-reproducible) or adaptively.  The grid
holds its nodes and weights as Python-int mantissas at one shared
exponent, and a read is one fixed-point integer sum at a scale chosen from
z (see D1Grid.cauchy), the way mpmath sums its own series.  On the
imaginary axis the sum is real; at the grid's bulk scale, which most
reads share, it runs over two integer arrays derived once per grid and
held for the grid read last, one addition and one division per node.  Its
limit at infinity is the grid's weight sum.  A grid's log-weight is formed
in one pass over its nodes, with K_nu's set-up done once per pass and the
values at x = n pi t <= 1, which grids of one (nu, prec) share across
degrees, held from the grid built last.  The second factor and the
matrix model are closed forms.

The outer and inner evaluators take each formula in one pass per point:
one branch root ((z^2-1)^(1/2) outer, (1-z^2)^(1/2) inner), the
equilibrium closed forms at that root (equilibrium.g_at,
equilibrium.theta_terms), one exponential for the outer value and its
power factors, at prec plus guard bits that cover n and |z|, and one
rounding at the end.  Both evaluate at Re z >= 0 and reflect the value.
Their per-(n, nu, prec) constants come from a small memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import add, floordiv
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .branches import (beta_quartic, exterior_beta, f_exterior, sqrt_offcut,
                       sqrt_onecut)
from .equilibrium import epsilon_n, g_at, theta_terms
from .mpfun import (GUARD_BITS, DomainError, besselk_map, besselk_real,
                    man_exp, require_prec, round_to, to_fixed, workprec)
from .quadrature import quad_ts, segment_nodes

GRID_SPLIT_LEVELS = {192: 6, 448: 7}
BULK_BITS = 32     # a D1 read carries at least prec + 64 + BULK_BITS bits


@dataclass(frozen=True)
class AsymptoticPrediction:
    value: mpc
    error_scale: mpf   # the formula's own O-term magnitude


def dist_to_interval(z, prec: int):
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


def _d2_base(z, w):
    """(w-i)/(w+i) at w = (z^2-1)^(1/2), formed through (w-i)(w+i) = z^2
    from whichever of w -+ i is cancellation-free: w - i where
    |w - i| >= |w + i|, that is Im w <= 0, else w + i."""
    if w.imag <= 0:
        up = w - mpc(0, 1)
        return up * up / (z * z)
    dn = w + mpc(0, 1)
    return z * z / (dn * dn)


def d2(z, nu, prec: int):
    """Phase Szego factor ((sqrt(z^2-1)-i)/(sqrt(z^2-1)+i))^(nu/4).

    The base comes from _d2_base, as in outer_eval; near the origin the
    factor behaves like z^(nu/2) above the cut and z^(-nu/2) below.
    """
    with workprec(prec):
        z = mpc(z)
        if _on_cut(z):
            raise DomainError("d2 is cut along [-1,1]")
        v = _d2_base(z, sqrt_offcut(z)) ** (mpf(nu) / 4)
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


def _weight_constants(n: int, nu, prec: int):
    """nu, n pi and log(2n)/2 as the log-weight reads them, at prec + 32
    bits."""
    with workprec(prec):
        return mpf(nu), n * mp.pi, mp.log(2 * n) / 2


def _k_value(t, x, log_k, half_log2n):
    """log W_n(t) / sqrt(1-t^2) from x = n pi t and log K_nu(x), at the
    working precision."""
    return (half_log2n + log_k + x) / mp.sqrt((1 - t) * (1 + t))


def _k_log_weight(n: int, nu, prec: int):
    """The map t -> log W_n(t) / sqrt(1-t^2) for t in (0,1), W_n being even
    in t.  nu, n pi and log(2n)/2 are taken once, at prec + 32 bits; the
    map evaluates at the caller's working precision, which must be
    prec + 32 bits (workprec(prec)).  build_d1_grid forms the same values
    in one pass (_k_log_weight_pass)."""
    nu, npi, half_log2n = _weight_constants(n, nu, prec)

    def k(t):
        x = npi * t
        return _k_value(t, x, mp.log(besselk_real(nu, x, prec + 32)),
                        half_log2n)

    return k


@dataclass(frozen=True)
class D1Grid:
    """Frozen composite tanh-sinh grid for the log-weight Cauchy integral.

    Stores positive-axis nodes and premultiplied log-weight values as int
    mantissas at the shared exponent -scale (value = mantissa * 2^-scale);
    the kernel is folded for the even integrand.  scale is the deepest
    node exponent, so every node is held exactly, and the weights to the
    same absolute resolution.  Immutable snapshot: cached and freshly
    built grids are bit-identical.

    Reads on the imaginary axis at bulk_scale take the numerators and the
    -t_i^2 from integer arrays derived from this payload on first use
    (_bulk_arrays); they are held outside the grid, for one grid at a
    time, so they add neither to the payload nor to its equality.
    """

    n: int
    nu: mpf
    prec: int
    level: int
    scale: int        # payload value = mantissa * 2^-scale
    nodes: tuple      # t_i in (0,1), int mantissas
    wk: tuple         # w_i * h * k(t_i), trapezoidal factor included

    def read_scale(self, z) -> int:
        """Fixed-point scale W (bits) of a read at z: prec + 64 plus four
        bits per binade of dist(z, [-1,1]) below 1 (dist <= |z|, so this
        also covers small |z|) and per binade of |z| above 1, and never
        less than bulk_scale."""
        near = dist_to_interval(z, 96)
        return self.prec + 64 + max(BULK_BITS,
                                    4 * max(0, 1 - mp.mag(near))
                                    + 4 * max(0, mp.mag(z)))

    @property
    def bulk_scale(self) -> int:
        """The least read scale, prec + 96 bits, which every read with
        dist(z, [-1,1]) >= 2^-8 and |z| < 2^8 shares (at n=16, prec 128:
        151 of the 182 axis reads of k_norm_bounds)."""
        return self.prec + 64 + BULK_BITS

    def cauchy(self, z):
        """integral over [-1,1] of k(t)/(z-t) dt via the folded grid, z off
        [-1,1] (d1n checks).

        The sum over i of wk_i (1/(z-t_i) + 1/(z+t_i)) is 2z * sum wk_i /
        (z^2 - t_i^2), formed in Python ints at scale 2^W (read_scale) with
        one integer division per node.  z^2 is taken exactly from z's
        mantissas and truncated toward zero.  On the imaginary axis (Re z
        exactly 0) z^2 = -y^2 is real, and the sum is the real sum of wk_i
        / a_i, a_i = -(y^2 + t_i^2) (see _axis_sum).  Elsewhere it is
        2z * sum wk_i (a_i - ib)/(a_i^2 + b^2), a_i = Re z^2 - t_i^2,
        b = Im z^2 (see _complex_sum).  conj z flips only the sign of b,
        and of z on the axis, so the read honours Schwarz reflection bit
        for bit.
        """
        with workprec(self.prec, guard=32):
            z = mpc(z)
            w = self.read_scale(z)
            xr, er = man_exp(z.real)
            xi, ei = man_exp(z.imag)
            a0 = to_fixed(xr * xr, 2 * er, w) - to_fixed(xi * xi, 2 * ei, w)
            if xr == 0:
                return 2 * z * self._axis_sum(a0, w)
            return 2 * z * self._complex_sum(a0, to_fixed(2 * xr * xi,
                                                          er + ei, w), w)

    def _squares(self, w: int):
        """t_i^2 at scale w, truncated."""
        shift = 2 * self.scale - w
        if shift >= 0:
            return (t * t >> shift for t in self.nodes)
        return (t * t << -shift for t in self.nodes)

    def _axis_sum(self, a0: int, w: int):
        """sum wk_i / (a0 - t_i^2) for real a0 at scale w, as an mpf.  At
        bulk_scale the numerators wk_i << (2w - scale) and the -t_i^2 come
        from _bulk_arrays, so a node costs one addition and one floor
        division, both run by map in C; other scales form them per node."""
        if w == self.bulk_scale:
            neg_t2, num = self._bulk_arrays()
            total = sum(map(floordiv, num, map(add, repeat(a0), neg_t2)))
        else:
            shift = 2 * w - self.scale     # wk/a at scale w
            total = sum((wk << shift) // (a0 - t2)
                        for t2, wk in zip(self._squares(w), self.wk))
        return mpf((total, -w))

    def _bulk_arrays(self):
        """(-t_i^2, wk_i << (2W - scale)) at W = bulk_scale, derived on the
        first axis read of this grid at that scale and held until another
        grid is read there, so at most one grid's arrays are alive."""
        global _held_bulk_arrays
        held = _held_bulk_arrays
        if held is None or held[0] is not self:
            _held_bulk_arrays = held = None    # release the last grid's first
            w = self.bulk_scale
            shift = 2 * w - self.scale
            held = (self, tuple(-t2 for t2 in self._squares(w)),
                    tuple(wk << shift for wk in self.wk))
            _held_bulk_arrays = held
        return held[1], held[2]

    def _complex_sum(self, a0: int, b: int, w: int):
        """sum wk_i / (a0 - t_i^2 + ib) for a0, b at scale w, as an mpc."""
        bb = b * b
        qshift = 3 * w - self.scale     # q = wk/(a^2+b^2) at scale w
        re = im = 0
        for t2, wk in zip(self._squares(w), self.wk):
            a = a0 - t2
            q = (wk << qshift) // (a * a + bb)
            re += q * a
            im += q
        return mpc(mpf((re, -2 * w)), mpf((-b * im, -2 * w)))


# (grid, -t_i^2, numerators) of the grid whose axis was read last at its
# bulk scale; see D1Grid._bulk_arrays
_held_bulk_arrays = None


def _grid_level(prec: int) -> int:
    for cutoff, level in GRID_SPLIT_LEVELS.items():
        if prec <= cutoff:
            return level
    return 8


def _grid_nodes(n: int, prec: int):
    """(nodes, factors) of the grid: t_i in (0,1) and w_i h width/2, at
    prec + 64 bits, over the segments [0, x*] and [x*, 1], x* = 1/(n pi),
    where the weight changes character."""
    level = _grid_level(prec)
    nodes, factors = [], []
    # guard must cover the closest node offsets ~2^-(prec+48) near t=1
    with workprec(prec, guard=64):
        xstar = 1 / (n * mp.pi)
        h_final = mpf(2) ** (-level)
        for a, b in [(mpf(0), +xstar), (+xstar, mpf(1))]:
            width = b - a
            for lev in range(level + 1):
                for w, ts in segment_nodes(a, b, lev, prec):
                    nodes += ts
                    factors += [w * h_final * width / 2] * len(ts)
    return nodes, factors


# (nu, prec, {x: log K_nu(x)}) over the nodes with x <= 1 of the grid
# built last; see _k_log_weight_pass
_held_log_k = None


def _k_log_weight_pass(n: int, nu, nodes, prec: int):
    """[k(t) for t in nodes] for k = _k_log_weight(n, nu, prec), formed in
    one pass at prec + 32 bits: K_nu's set-up is done once (besselk_map),
    and every value is bit-identical to k's.

    In x = n pi t the grid's first segment [0, x*] is (0, 1] for every n,
    so at one (nu, prec) grids of different n share x values there: all
    of them when the degrees differ by a power of two (n = 16, 32, 64,
    128), 240 of 552 for n = 12 after 16.  log K_nu at the x <= 1 nodes is
    held for the grid built last and read by the next pass at the same
    (nu, prec); a pass at any other (nu, prec) replaces it."""
    global _held_log_k
    nu, npi, half_log2n = _weight_constants(n, nu, prec)
    held = _held_log_k
    known = held[2] if held and held[:2] == (nu, prec) else {}
    log_ks = {}     # this grid's, so nodes that round to one x share it
    k = besselk_map(nu, prec + 32)
    out = []
    with workprec(prec):
        for t in nodes:
            x = npi * t
            log_k = log_ks.get(x._mpf_, known.get(x._mpf_))
            if log_k is None:
                log_k = mp.log(k(x))
            if x <= 1:
                log_ks[x._mpf_] = log_k
            out.append(_k_value(t, x, log_k, half_log2n))
    _held_log_k = (nu, prec, log_ks)
    return out


def build_d1_grid(n: int, nu, prec: int) -> D1Grid:
    """Construct the frozen grid; splits at the weight's character change
    x* = 1/(n pi) and at the endpoints.  The log-weight comes from one
    pass over the nodes (_k_log_weight_pass), so the payload is
    bit-identical to a node-by-node evaluation of _k_log_weight."""
    require_prec(prec)
    level = _grid_level(prec)
    nodes, factors = _grid_nodes(n, prec)
    with workprec(prec, guard=64):
        nu = mpf(nu)
    wk = _k_log_weight_pass(n, nu, nodes, prec)
    with workprec(prec, guard=64):
        for i, c in enumerate(factors):
            wk[i] *= c
    scale = -min(t._mpf_[2] for t in nodes)
    return D1Grid(n=n, nu=nu, prec=prec, level=level, scale=scale,
                  nodes=tuple(to_fixed(*man_exp(t), scale) for t in nodes),
                  wk=tuple(to_fixed(*man_exp(v), scale) for v in wk))


def _get_grid(n: int, nu, prec: int) -> D1Grid:
    """The grid for (n, nu, prec), cached on nu as build_d1_grid reads it."""
    with workprec(prec, guard=64):
        nu = mpf(nu)
    return _cached_grid(n, nu, prec)


@lru_cache(maxsize=16)   # 0.2 MB a grid; below 16 the tests rebuild some
def _cached_grid(n: int, nu: mpf, prec: int) -> D1Grid:
    return build_d1_grid(n, nu, prec)


def d1n(z, n: int, nu, prec: int, adaptive: bool = False):
    """First Szego factor for the normalized weight, off [-1,1].

    Default path is one fixed-point read of the cached frozen grid
    (D1Grid.cauchy, whose scale follows z, so the grid *sum* keeps the
    working precision for every z off the cut); adaptive=True runs the
    tanh-sinh engine per call, used as the independent route in tests.

    The grid's quadrature error does grow as z nears the cut.  On the
    imaginary axis at prec 128 (n=16, nu=0.25), the level-6 grid's log D1
    differs from a level-8 grid's by at most 2e-31 for y >= 1e-5, but by
    5e-11 at y = 2^-40, 1.5e-4 at 2^-80 and 1.6e-2 at 2^-120.
    """
    with workprec(prec, guard=32):
        z = mpc(z)
        if _on_cut(z):
            raise DomainError("d1n is cut along [-1,1]")
        if adaptive:
            k = _k_log_weight(n, mpf(nu), prec + 32)
            points = [mpf(0), 1 / (n * mp.pi), mpf(1)]

            def f(t):
                return k(t) * (1 / (z - t) + 1 / (z + t))

            integral, _ = quad_ts(f, points, prec)
        else:   # the caller's nu, so every caller shares the cached grid
            integral = _get_grid(n, nu, prec).cauchy(z)
        v = mp.exp(sqrt_offcut(z) / (2 * mp.pi) * integral)
    return round_to(v, prec)


def d_infty_n(n: int, nu, prec: int):
    """Limit of the first Szego factor at infinity (tends to 2^(1/4)):
    exp(sum wk / pi) over the cached grid, the weight sum taken exactly
    in ints (1/(2 pi) times the folded even integral of k)."""
    grid = _get_grid(n, nu, prec)
    with workprec(prec, guard=32):
        v = mp.exp(mpf((sum(grid.wk), -grid.scale)) / mp.pi)
    return round_to(v, prec)


class _FormulaConstants(NamedTuple):
    nu: mpf
    root4_2: mpf        # 2^(1/4)
    inner_factor: mpc   # e^(i nu pi/4) / (2^(1/4) (2e)^n)
    epsilon: mpf        # epsilon_n, outer_eval's error scale
    band: mpf           # 3 log n/n + epsilon_n, inner_eval's error scale


@lru_cache(maxsize=8)
def _formula_constants(n: int, nu, prec: int) -> _FormulaConstants:
    """What the asymptotic formulas take from (n, nu, prec) alone, once
    per key: nu, 2^(1/4) and the inner factor at prec + GUARD_BITS bits
    plus the bits of n (the evaluators run at least that wide), and the
    error scales at prec from the caller's nu."""
    with workprec(prec):
        epsilon = epsilon_n(n, nu, prec)
        band = round_to(3 * mp.log(n) / n + epsilon, prec)
    with workprec(prec, guard=GUARD_BITS + n.bit_length()):
        nu = mpf(nu)
        root4_2 = mp.sqrt(mp.sqrt(2))
        inner_factor = (mp.expj(nu * mp.pi / 4)
                        / (root4_2 * (2 * mp.e) ** n))
    return _FormulaConstants(nu, root4_2, inner_factor, epsilon, band)


def _eval_guard(z, n: int) -> int:
    """Guard bits of the evaluators.  They exponentiate n g, n pi z/2 and
    i theta_n, whose absolute errors are about n |z| ulps (in g, i pi F
    and pi z/2 cancel down to log z), so the guard covers the bits of n
    and of |z| (as equilibrium._g covers |z|)."""
    return GUARD_BITS + n.bit_length() + max(0, mp.mag(z))


def _outer_value(z, n: int, c: _FormulaConstants):
    """The outer formula at Re z >= 0 off [-1,1], at the ambient
    precision, in one pass from w = (z^2-1)^(1/2) and phi = z + w:
    2^(1/4) N0_11 e^(n g) (z/phi)^(1/4) D2^(-1), the last three as one
    exponential.  N0_11 = (beta + 1/beta)/2 (n0_matrix), g from g_at,
    (z/phi)^(1/4) is szego_power at alpha = 1/2 and D2 = base^(nu/4) with
    d2's base."""
    w = sqrt_offcut(z)
    phi = z + w
    b = exterior_beta(phi)
    expo = (n * g_at(z, w) + mp.log(z / phi) / 4
            - c.nu / 4 * mp.log(_d2_base(z, w)))
    return c.root4_2 * (b + 1 / b) / 2 * mp.exp(expo)


def outer_eval(z, n: int, nu, prec: int) -> AsymptoticPrediction:
    """Leading outer approximation of the rescaled polynomial off [-1,1].

    value = exp(n g) * (z(z+s)/(2(z^2-1)))^(1/4) * (phase factor)^(-nu/4),
    rounded once (_outer_value).  Re z < 0 is reflected through
    P~_n(-conj z) = (-1)^n conj P~_n(z), so the symmetry holds bit for
    bit; error_scale is the master scale epsilon_n.
    """
    with workprec(prec):
        z = mpc(z)
        if dist_to_interval(z, prec) < mpf("0.2"):
            raise DomainError("outer regime needs dist(z, [-1,1]) >= 0.2")
    c = _formula_constants(n, nu, prec)
    with workprec(prec, guard=_eval_guard(z, n)):
        reflect = z.real < 0
        value = _outer_value(-mp.conj(z) if reflect else z, n, c)
        if reflect:
            value = mp.conj(value) * (-1) ** n
    return AsymptoticPrediction(value=round_to(value, prec),
                                error_scale=c.epsilon)


def _check_inner_domain(z):
    if abs(z.imag) > mpf("0.1") or abs(z.real) > 1:
        raise DomainError("point outside the validated oscillatory box")
    delta = mpf("0.2")
    if abs(z) < delta or abs(z - 1) < delta or abs(z + 1) < delta:
        raise DomainError("point inside an excluded disk of the "
                          "oscillatory regime")


def _inner_parts(z, n: int, c: _FormulaConstants):
    """(prefactor, t_plus, t_minus) at Re z > 0, at the ambient precision,
    in one pass from s = (1-z^2)^(1/2): t_+- = e^(+-(nu pi psi/2 +
    i theta_n)) with pi psi and theta_n from theta_terms, and the
    prefactor z^(1/4) e^(i nu pi/4) e^(n pi z/2) / (2^(1/4) (2e)^n
    s^(1/2)), its roots as square roots."""
    s = sqrt_onecut(z)
    theta, p = theta_terms(z, n, s)
    tp = mp.exp(c.nu * p / 2 + mpc(0, 1) * theta)
    pref = (c.inner_factor * mp.exp(n * mp.pi * z / 2)
            * mp.sqrt(mp.sqrt(z) / s))
    return pref, tp, 1 / tp


def inner_terms(z, n: int, nu, prec: int):
    """Prefactor and the two oscillatory exponential terms at Re z > 0.

    Returns (prefactor, t_plus, t_minus) with the approximation equal to
    prefactor * (t_plus + t_minus) to leading order (_inner_parts).
    """
    with workprec(prec):
        z = mpc(z)
        if z.real <= 0:
            raise DomainError("inner_terms requires Re z > 0; reflect first")
    c = _formula_constants(n, nu, prec)
    with workprec(prec, guard=_eval_guard(z, n)):
        parts = _inner_parts(z, n, c)
    return tuple(round_to(v, prec) for v in parts)


def inner_eval(z, n: int, nu, prec: int) -> AsymptoticPrediction:
    """Oscillatory-regime approximation near (-1,1), rounded once.

    Reflection handles Re z < 0 through the conjugation symmetry of the
    polynomials (with the degree-parity sign).  error_scale combines the
    multiplicative log n/n band on each oscillatory term with the additive
    epsilon_n term.
    """
    with workprec(prec):
        z = mpc(z)
        _check_inner_domain(z)
    c = _formula_constants(n, nu, prec)
    with workprec(prec, guard=_eval_guard(z, n)):
        reflect = z.real < 0
        pref, tp, tm = _inner_parts(-mp.conj(z) if reflect else z, n, c)
        value = pref * (tp + tm)
        if reflect:
            value = mp.conj(value) * (-1) ** n
    return AsymptoticPrediction(value=round_to(value, prec),
                                error_scale=c.band)
