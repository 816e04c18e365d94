"""Szego functions and the outer/inner asymptotic evaluators for the
rescaled polynomials.

The first Szego factor d1n is a Cauchy-type integral of log W_n against
the Chebyshev kernel.  On the imaginary axis it is read from a frozen
tanh-sinh grid per (n, nu, prec) (D1Grid; d1_grid holds the grids of the
last (nu, prec) it served, bit-identical to fresh builds) as one
fixed-point sum at a scale chosen from y; that sum is within
2^-(prec+64) relative of the mpc sum over the grid's nodes, and D1(-iy) =
conj D1(iy) bit for bit.  Off the axis d1n runs the tanh-sinh engine,
which holds 2^-(prec/4) or raises QuadratureError.  Both routes take the
log-weight log W_n(t) / sqrt(1-t^2) from one core in Python ints
(_log_weight_core), which the grid stores at its own scale, times the
node's factor, and the engine reads as an mpf (_k_log_weight); log K_nu
comes from mpfun.besselk_map, by Taylor tables or a memo where they
serve (_log_k_map).  The log-weight is within 2^-(prec+16) in log W_n of
log K_nu by its series at prec + 96 bits.  The second factor d2 is a
closed form.

The outer and inner evaluators round once: a value is within 2^-(prec-2)
relative of the same call at prec + 128 bits, and P~_n(-conj z) =
(-1)^n conj P~_n(z) holds bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, floordiv, lshift, mul, rshift, sub
from typing import NamedTuple

from mpmath import mp, mpc, mpf
from mpmath.libmp import mpf_mul, round_nearest

from .branches import exterior_beta, sqrt_offcut, sqrt_onecut
from .equilibrium import epsilon_n, g_at, theta_terms
from .mpfun import (GUARD_BITS, DomainError, besselk_map, man_exp,
                    require_prec, round_to, to_fixed, workprec)
from .quadrature import quad_ts, segment_nodes

GRID_SPLIT_LEVELS = {192: 6, 448: 7}
BULK_BITS = 32     # a D1 read carries at least prec + 64 + BULK_BITS bits


@dataclass(frozen=True)
class AsymptoticPrediction:
    value: mpc
    error_scale: mpf   # the formula's own O-term magnitude


def _on_cut(z) -> bool:
    return z.imag == 0 and -1 <= z.real <= 1


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


def _weight_constants(n: int, nu, prec: int):
    """nu, n pi and log(2n)/2 as the log-weight reads them, at prec + 32
    bits."""
    with workprec(prec):
        return mpf(nu), n * mp.pi, mp.log(2 * n) / 2


def _log_weight_core(n: int, nu, prec: int):
    """The map (t, scale, factor) -> factor log W_n(t) / sqrt(1-t^2) as an
    int at the scale 2^scale, floored, for an mpf t in (0,1) held exactly
    at that scale and factor = (man, exp), W_n being even in t.  It must
    run at prec + 32 bits (workprec(prec)), where log K_nu is read.

    x = n pi t is rounded to prec + 32 bits, as log K_nu reads it
    (_log_k_map); the sum log(2n)/2 + log K_nu(x) + x is formed at the
    scale, 1 - t^2 = (1-t)(1+t) exactly at twice the scale, and its square
    root by math.isqrt with at least prec + 64 bits, which holds
    where 1 - t nears 2^-(prec+48); the quotient times the factor is one
    floor division."""
    nu, npi, half_log2n = _weight_constants(n, nu, prec)
    log_k = _log_k_map(nu, npi, prec)
    wp, npi, half = prec + 32, npi._mpf_, man_exp(half_log2n)
    least = 2 * (prec + 65)        # bits of 1 - t^2 for prec + 64 in the root

    def core(t, scale: int, factor) -> int:
        x = mp.make_mpf(mpf_mul(npi, t._mpf_, wp, round_nearest))
        one, tf = 1 << scale, to_fixed(*man_exp(t), scale)
        square = (one - tf) * (one + tf)          # 1 - t^2 at 2 scale
        g = max(0, least - square.bit_length()) // 2
        root = math.isqrt(square << 2 * g)        # at scale + g
        total = (to_fixed(*half, scale) + to_fixed(*man_exp(log_k(x)), scale)
                 + to_fixed(*man_exp(x), scale)) * factor[0]
        e = g + scale + factor[1]
        return (total << e) // root if e >= 0 else total // (root << -e)

    return core


def _k_log_weight(n: int, nu, prec: int):
    """The map t -> log W_n(t) / sqrt(1-t^2) for t in (0,1), rounded to the
    caller's working precision: _log_weight_core at t's own scale, and at
    least prec + 64 bits."""
    core = _log_weight_core(n, nu, prec)

    def k(t):
        scale = max(-t._mpf_[2], prec + 64)
        with workprec(prec):
            v = core(t, scale, (1, 0))
        return mpf((v, -scale))

    return k


TAYLOR_BITS = 64    # a log K_nu Taylor table is held to prec + 64 bits


class _LogKTaylor(NamedTuple):
    """log K_nu(x) for lo < x <= hi, x > 1, as a polynomial in u =
    (x - x0) / 2^q, |u| <= 1, held in Python ints at the scale 2^scale and
    evaluated by Horner (see _log_k_taylor)."""
    lo: mpf
    hi: mpf
    x0: int           # x0 at the scale 2^(scale - q)
    q: int
    scale: int
    coeffs: tuple     # highest degree first

    def __call__(self, x):
        man, exp = man_exp(x)
        u = to_fixed(man, exp, self.scale - self.q) - self.x0
        acc = 0
        for a in self.coeffs:
            acc = (acc * u >> self.scale) + a
        return mpf((acc, -self.scale))


@lru_cache(maxsize=8)    # the table about x = 1 serves every n at (nu, prec)
def _log_k_taylor(x0: mpf, nu: mpf, prec: int) -> _LogKTaylor:
    """Taylor table of log K_nu about x0 > 0, valid for x > 1 with |x - x0|
    <= R = min(x0/8, 2), to about 2^-(prec+48) absolute.

    v = e^x K_nu solves x^2 v'' + x(1-2x) v' - (x+nu^2) v = 0.  Its
    coefficients about x0 follow from v(x0) and v'(x0) (K_nu' = -K_(1-nu)
    - (nu/x) K_nu, DLMF 10.29.2) by the three-term recurrence of that
    equation, and log v by the recurrence of v' = v (log v)', both in
    u = (x - x0)/2^q, 2^q >= R.  The forward recurrence also carries the
    growing solution (like e^x I_nu), whose coefficients grow like
    (2^(q+1))^k/k! before they fall; R <= 2 bounds that growth by e^4, and
    with it the terms a table needs.  Coefficients are taken until two in
    a row fall below 2^-(prec+48); they decay like (2^q/x0)^k <= 4^-k."""
    scale = prec + TAYLOR_BITS
    radius = min(x0 / 8, 2)
    q = math.ceil(math.log2(radius))         # 2^q >= R, so |u| <= 1
    with workprec(scale):
        k_nu = besselk_map(nu, scale)(x0)
        # K_(nu-1) = K_(1-nu), by the series at nu = 0 too (1 - 2^-(scale
        # + 32), as the series takes nu = 0), where mp.besselk is slow
        k_lo = besselk_map(1 - max(nu, mpf(2) ** -(scale + 32)), scale)(x0)
        c1 = 1 - k_lo / k_nu - nu / x0          # v'(x0) / v(x0)
        log_k0 = mp.log(k_nu)
        nu2 = to_fixed(*man_exp(nu * nu), scale)
        lo, hi = max(x0 - radius, mpf(1)), x0 + radius
    one = 1 << scale
    x = to_fixed(*man_exp(x0), scale)
    x2 = x * x >> scale
    b = [one, to_fixed(*man_exp(c1), scale + q)]          # c_k 2^(qk)
    logs = [0, b[1]]                                      # of log(v/v0)
    tol = 1 << (scale - prec - 48)
    k = 0
    while abs(logs[-1]) > tol or abs(logs[-2]) > tol:
        alpha = (k + 1) * ((2 * k + 1) * x - 2 * x2)
        beta = k * k * one - 4 * k * x - x - nu2
        num = (to_fixed(alpha * b[k + 1], 0, q)
               + to_fixed(beta * b[k], 0, 2 * q))
        if k:
            num -= to_fixed((2 * k - 1) * b[k - 1] << scale, 0, 3 * q)
        b.append(-num // (x2 * (k + 1) * (k + 2)))
        m = k + 2
        conv = sum(j * logs[j] * b[m - j] for j in range(1, m))
        logs.append(b[m] - (conv >> scale) // m)
        k += 1
    # log K_nu = log K_nu(x0) + log(v/v0) - (x - x0)
    coeffs = [to_fixed(*man_exp(log_k0), scale), logs[1] - (1 << (scale + q)),
              *logs[2:]]
    return _LogKTaylor(lo, hi, to_fixed(*man_exp(x0), scale - q), q, scale,
                       tuple(reversed(coeffs)))


@lru_cache(maxsize=1)    # the last (nu, prec) at which a map was made
def _log_k_memo(nu: mpf, prec: int) -> dict:
    """{x: log K_nu(x)} at the x <= 1 that the log K_nu maps made at
    (nu, prec) have read (_log_k_map)."""
    return {}


def _log_k_map(nu, npi, prec: int):
    """x -> log K_nu(x) for x = n pi t, t in (0,1), at the working
    precision prec + 32: by the Taylor tables about x = 1 and x = n pi
    (_log_k_taylor) where they cover x, which holds for the grid's node
    clusters at t -> x* from above and t -> 1, else as log of
    besselk_map(nu, prec + 32).

    In x = n pi t a grid's first segment [0, x*] is (0, 1] for every n,
    so at one (nu, prec) grids of different n share x values there: all
    of them when the degrees differ by a power of two (n = 16, 32, 64,
    128), 240 of 552 for n = 12 after 16.  Values at x <= 1 go into
    _log_k_memo, which holds them for the last (nu, prec) at which a map
    was made."""
    tables = (_log_k_taylor(mpf(1), nu, prec), _log_k_taylor(npi, nu, prec))
    k = besselk_map(nu, prec + 32)
    memo = _log_k_memo(nu, prec)

    def log_k(x):
        if x <= 1:
            v = memo.get(x._mpf_)
            if v is None:
                v = memo[x._mpf_] = mp.log(k(x))
            return v
        for table in tables:
            if table.lo < x <= table.hi:
                return table(x)
        return mp.log(k(x))

    return log_k


@dataclass(frozen=True)
class D1Grid:
    """Frozen composite tanh-sinh grid for the log-weight Cauchy integral.

    Stores positive-axis nodes and premultiplied log-weight values as int
    mantissas at the shared exponent -scale (value = mantissa * 2^-scale);
    the kernel is folded for the even integrand.  scale is the deepest
    node exponent, so every node is held exactly, and the weights to the
    same absolute resolution.  Immutable snapshot: held and freshly built
    grids are bit-identical.

    The grid is read on the imaginary axis only (cauchy).  Its reads take
    integer arrays and the moments of the node clusters, derived from this
    payload at the grid's first read and held by the grid outside its
    fields (_bulk_arrays), so they add neither to the payload nor to its
    equality, and they go with the grid.
    """

    n: int
    nu: mpf
    prec: int
    scale: int        # payload value = mantissa * 2^-scale
    nodes: tuple      # t_i in (0,1), int mantissas
    wk: tuple         # w_i * h * k(t_i), trapezoidal factor included

    def read_scale(self, z) -> int:
        """Fixed-point scale W (bits) of a read at z = iy: prec + 64 plus
        four bits per binade of |y| below 1 and above 1, and never less
        than bulk_scale."""
        m = mp.mag(z.imag)
        return self.prec + 64 + max(BULK_BITS, 4 * max(m, 1 - m))

    @property
    def bulk_scale(self) -> int:
        """The least read scale, prec + 96 bits, which every read with
        2^-8 <= |y| < 2^8 shares (at n=16, prec 128: 151 of the 182 reads
        of k_norm_bounds)."""
        return self.prec + 64 + BULK_BITS

    def cauchy(self, z):
        """integral over [-1,1] of k(t)/(z-t) dt via the folded grid, at
        z = iy, y != 0 (Re z exactly 0; DomainError elsewhere).

        The sum over i of wk_i (1/(z-t_i) + 1/(z+t_i)) is 2z * sum wk_i /
        (z^2 - t_i^2), and z^2 = -y^2 is real: the real sum of wk_i / a_i,
        a_i = -(y^2 + t_i^2), formed in Python ints at scale 2^W
        (read_scale), with one integer division per node and the node
        clusters summed from their moments (see _axis_sum).  y^2 is taken
        exactly from y's mantissa and truncated toward zero.  -y flips only
        the sign of z, so the read honours Schwarz reflection bit for bit.
        """
        with workprec(self.prec, guard=32):
            z = mpc(z)
            if z.real != 0 or z.imag == 0:
                raise DomainError("the D1 grid is read only on the "
                                  "imaginary axis off the origin")
            w = self.read_scale(z)
            xi, ei = man_exp(z.imag)
            return 2 * z * self._axis_sum(-to_fixed(xi * xi, 2 * ei, w), w)

    def _squares(self, squares, w: int):
        """The t_i^2 held at scale 2 scale, at scale w, truncated."""
        shift = 2 * self.scale - w
        if shift >= 0:
            return map(rshift, squares, repeat(shift))
        return map(lshift, squares, repeat(-shift))

    def _axis_sum(self, a0: int, w: int):
        """sum wk_i / (a0 - t_i^2) for real a0 <= 0 at scale w, as an mpf.

        The node clusters of _bulk_arrays are summed from their moments
        (_Cluster.axis_sum), the near-0 one only at bulk_scale, where
        y >= 2^-8.  Every other node costs one floor division, run by map
        in C: at bulk_scale over the held -t_i^2 and numerators wk_i <<
        (2w - scale), at other scales over the held t_i^2 shifted to w."""
        neg_t2, num, squares, wks, clusters = self._bulk_arrays
        if w == self.bulk_scale:
            total = sum(map(floordiv, num, map(add, repeat(a0), neg_t2)))
        else:
            total = sum(map(floordiv,
                            map(lshift, wks, repeat(2 * w - self.scale)),
                            map(sub, repeat(a0), self._squares(squares, w))))
            clusters = clusters[:2]     # not the near-0 one
        for cluster in clusters:
            total += cluster.axis_sum(a0, w, self.bulk_scale)
        return mpf((total, -w))

    @cached_property
    def _bulk_arrays(self):
        """(-t_i^2, wk_i << (2W - scale)) at W = bulk_scale over the nodes
        in no cluster; t_i^2 at scale 2 scale and wk_i over those and the
        near-0 cluster; and the clusters (t -> x*, t -> 1, near 0; see
        _clusters).  Derived at the grid's first read and held by the grid
        in its instance dict, outside the dataclass fields."""
        squares = [t * t for t in self.nodes]
        (near0, near), *others = self._clusters(squares)
        taken = set(near).union(*(members for _, members in others))
        rest = [i for i in range(len(squares)) if i not in taken]
        w = self.bulk_scale
        return (tuple(-(squares[i] >> (2 * self.scale - w)) for i in rest),
                tuple(self.wk[i] << (2 * w - self.scale) for i in rest),
                tuple(squares[i] for i in rest + near),
                tuple(self.wk[i] for i in rest + near),
                (*(cluster for cluster, _ in others), near0))

    def _clusters(self, squares):
        """[(cluster, its node indices)] near 0, at t -> x* and at t -> 1,
        from the t_i^2 at scale 2 scale.

        The tanh-sinh rule packs its nodes at the segment ends.  A cluster
        takes the nodes with |t_i^2 - c| <= h = 2^-p, for a centre c and a
        half-width h <= |a0 - c| / 16 at every a0 it serves: t -> x*,
        c = x*^2 to 16 bits and h in (c/32, c/16]; t -> 1, c = 1 - 1/32
        and h = 1/32; both serve every a0 <= 0.  Near 0, c = 0 and h =
        min(2^-22, 2^-6 x*^2), for a0 = -y^2 <= -2^-16, which holds at
        bulk_scale.  At 128 bits that cluster holds 215 of the 1114 nodes
        at n = 16 (225 at n = 32); a bulk read sums it from its moments in
        about 6 us, where its divisions take 80-90 us (2-core Xeon)."""
        mant, e = math.frexp(1 / (self.n * math.pi) ** 2)     # x*^2
        p0 = max(22, 7 - e)
        # (centre mantissa, its exponent, p, log2 of the least |a0 - c|)
        specs = ((0, 0, p0, 6 - p0), (round(mant * 2 ** 16), e - 16, 5 - e,
                                      e - 1), (31, -5, 5, -1))
        two = 2 * self.scale
        out = []
        for man, exp, p, least in specs:
            c = man << (two + exp)
            members = [i for i, t2 in enumerate(squares)
                       if abs(t2 - c) <= 1 << (two - p)]
            out.append((_Cluster.build(
                [squares[i] - c for i in members],
                [self.wk[i] for i in members], two, self.scale, c, p, least,
                self.bulk_scale), members))
        return out


def _terms(log2_mabs: float, log2_a: float, v: int, p: int,
           target: int) -> int:
    """Moments a cluster read sums so that the rest of its series is at
    most 2^-target / max(1, |A|), which shrinks with the read's value
    where |A| > 1: with rho = h/|A| <= 1/2, the terms past J sum to
    at most Mabs rho^J / ((1 - rho) |A|), Mabs = sum |wk_i|; Mabs and |A|
    come as log2 of their images at the scale 2^v, rounded up in J."""
    log2_inv_rho = log2_a - v + p
    return math.ceil((target + 1 + log2_mabs - min(log2_a, v))
                     / log2_inv_rho) + 1


class _Cluster(NamedTuple):
    """Nodes with |t_i^2 - c| <= h = 2^-p, summed on the imaginary axis
    from their moments M_j = sum wk_i ((t_i^2 - c)/h)^j: with A = a0 - c
    and r = h/A, sum wk_i / (a0 - t_i^2) = (1/A) sum_j M_j r^j, which
    converges like 16^-j where |A| >= 16 h."""
    centre: int       # c at the scale 2^v
    p: int
    v: int            # the moments' scale: bulk_scale + 16 + bits of 1/|A|
    log2_mabs: float
    moments: tuple    # M_0, M_1, ... at scale v

    @classmethod
    def build(cls, offsets, wks, two, scale, c, p, least, target):
        """The cluster of the nodes with t_i^2 - c = offsets (scale
        2^two) and wk_i = wks (scale 2^scale), with moments enough for
        reads down to |A| = 2^least (_terms)."""
        v = target + 16 + max(0, -least)
        deltas = [to_fixed(d, 0, v + p - two) for d in offsets]  # scale v
        powers = [to_fixed(wk, 0, v - scale) for wk in wks]
        log2_mabs = math.log2(max(1, sum(map(abs, powers))))
        moments = []
        for _ in range(_terms(log2_mabs, v + least, v, p, target)):
            moments.append(sum(powers))
            powers = list(map(rshift, map(mul, powers, deltas), repeat(v)))
        return cls(to_fixed(c, 0, v - two), p, v, log2_mabs, tuple(moments))

    def axis_sum(self, a0: int, w: int, target: int) -> int:
        """sum wk_i / (a0 - t_i^2) over the members at scale w, for a0 at
        scale w that the cluster serves: S = sum_j M_j r^j by Horner at
        scale v over _terms terms, then S/A at scale w.  S rounds at
        2^-v whatever |A| is, and the division keeps the read's scale, so
        the cluster's error shrinks with the read's value as |A| grows."""
        v = self.v
        a = to_fixed(a0, 0, v - w) - self.centre         # A = a0 - c < 0
        terms = _terms(self.log2_mabs, math.log2(-a), v, self.p, target)
        r = (1 << (2 * v - self.p)) // a            # h / A at scale v
        acc = 0
        for m in reversed(self.moments[:terms]):
            acc = m + (acc * r >> v)
        return (acc << w) // a


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


def build_d1_grid(n: int, nu, prec: int) -> D1Grid:
    """Construct the frozen grid; splits at the weight's character change
    x* = 1/(n pi) and at the endpoints.  The payload is
    _log_weight_core at each node and its factor, at the grid's scale."""
    require_prec(prec)
    nodes, factors = _grid_nodes(n, prec)
    with workprec(prec, guard=64):
        nu = mpf(nu)
    core = _log_weight_core(n, nu, prec)
    scale = -min(t._mpf_[2] for t in nodes)
    with workprec(prec):
        wk = tuple(core(t, scale, man_exp(c)) for t, c in zip(nodes, factors))
    return D1Grid(n=n, nu=nu, prec=prec, scale=scale,
                  nodes=tuple(to_fixed(*man_exp(t), scale) for t in nodes),
                  wk=wk)


@lru_cache(maxsize=1)    # the last (nu, prec) at which a grid was served
def _grids(nu: mpf, prec: int) -> dict:
    """{n: D1Grid} of the grids d1_grid has served at (nu, prec)."""
    return {}


def d1_grid(n: int, nu, prec: int) -> D1Grid:
    """The grid for (n, nu, prec), keyed on nu as build_d1_grid reads it.
    The grids of the last (nu, prec) served are held, each with its read
    arrays; a call at another (nu, prec) releases them.  Every reader
    works at one (nu, prec) at a time, whatever its degrees."""
    with workprec(prec, guard=64):
        nu = mpf(nu)
    grids = _grids(nu, prec)
    if n not in grids:
        grids[n] = build_d1_grid(n, nu, prec)
    return grids[n]


def d1n(z, n: int, nu, prec: int, adaptive: bool = False):
    """First Szego factor for the normalized weight, off [-1,1].

    On the imaginary axis (Re z exactly 0) it is one fixed-point read of
    the held frozen grid (D1Grid.cauchy, whose scale follows y, so the
    grid *sum* keeps the working precision).  Off the axis, and everywhere
    with adaptive=True (the grid's independent route in tests), the
    tanh-sinh engine runs per call: its integral holds 2^-(prec/4) or
    raises QuadratureError, as at 0.5 + 1e-3 i (n=16, prec 128).

    The grid's quadrature error does grow as y nears 0.  At prec 128
    (n=16, nu=0.25), the level-6 grid's log D1 differs from a level-8
    grid's by at most 2e-31 for y >= 1e-5, but by 5e-11 at y = 2^-40,
    1.5e-4 at 2^-80 and 1.6e-2 at 2^-120.
    """
    with workprec(prec, guard=32):
        z = mpc(z)
        if _on_cut(z):
            raise DomainError("d1n is cut along [-1,1]")
        if adaptive or z.real != 0:
            k = _k_log_weight(n, mpf(nu), prec + 32)
            points = [mpf(0), 1 / (n * mp.pi), mpf(1)]

            def f(t):
                return k(t) * (1 / (z - t) + 1 / (z + t))

            integral, _ = quad_ts(f, points, prec)
        else:   # the caller's nu, so every caller shares the held grid
            integral = d1_grid(n, nu, prec).cauchy(z)
        v = mp.exp(sqrt_offcut(z) / (2 * mp.pi) * integral)
    return round_to(v, prec)


class _FormulaConstants(NamedTuple):
    nu: mpf
    root4_2: mpf        # 2^(1/4)
    inner_factor: mpc   # e^(i nu pi/4) / (2^(1/4) (2e)^n)
    epsilon: mpf        # epsilon_n, outer_eval's error scale
    band: mpf           # 3 log n/n + epsilon_n, inner_eval's error scale


# the evaluators' excluded discs: outer_eval needs dist(z, [-1,1]) at
# least this, inner_eval |z| and |z -+ 1| at least this
EXCLUSION_RADIUS = "0.2"


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
    exponential.  N0_11 = (beta + 1/beta)/2 is the matrix model's entry,
    beta = ((z-1)/(z+1))^(1/4) (exterior_beta), g comes from g_at,
    (z/phi)^(1/4) is the Szego function of |x|^(1/2) and D2 = base^(nu/4)
    with d2's base."""
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
        gap = max(abs(z.real) - 1, 0)      # dist(z, [-1,1])^2 < radius^2
        if gap * gap + z.imag * z.imag < mpf(EXCLUSION_RADIUS) ** 2:
            raise DomainError("outer regime needs dist(z, [-1,1]) >= "
                              + EXCLUSION_RADIUS)
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
    delta = mpf(EXCLUSION_RADIUS)
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
