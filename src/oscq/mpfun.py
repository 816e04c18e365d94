"""Arbitrary-precision scalar layer: precision plumbing, gamma and 1/gamma,
the modified Bessel function K_nu and the Bessel functions J_+-nu, Y_nu on
the positive real axis.

Values are mpmath ``mpf`` / ``mpc``; every operation takes an explicit
working precision in bits and evaluates internally with guard bits before
rounding down to the requested precision.
Relative error contract for the gamma functions: <= 2**(-prec+16).
The two Bessel maps, ``besselk_map(nu, prec)`` for K_nu, relative to
K_nu, and ``besseljy_map(nu, prec)`` for the triple (J_nu, J_-nu, Y_nu),
relative to sqrt(J_nu^2 + Y_nu^2), are within 16 units of 2^-prec of
mpmath at prec + 64 bits over the tested range (prec 64..448,
0 <= nu < 1); ``besseljy_real(nu, s, prec)`` is the J/Y map at one point.
Each map does its per-(nu, prec) set-up once, when it is made: nu's
conversion, the series set-up (_pm_core) and the constants its
reflection reads.  Below mpmath's asymptotic crossover both sum their
+-nu pair of power series in Python ints, one per-argument evaluation
(_pm_series); above it they call mpmath.  The D1 grid's log-weight reads
besselk_map (parametrix._log_k_map) and the small-norm kernels read
besseljy_map (smallnorm._Kernel).

mpmath rounds on every construction and operation at the ambient context,
so all argument conversion happens inside the functions' own workprec
blocks; results round down to the requested precision on the way out.

The precision context is process-global (mpmath's mp); all functions are
pure in their inputs, but for parallel workloads use processes rather
than threads.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache
from typing import NamedTuple

from mpmath import mp, mpf

MIN_PREC = 64
GUARD_BITS = 32


class DomainError(ValueError):
    """Argument outside the documented domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


def require_prec(prec: int) -> int:
    if prec < MIN_PREC:
        raise ValueError(f"prec must be >= {MIN_PREC} bits, got {prec}")
    return int(prec)


@contextmanager
def workprec(prec: int, guard: int = GUARD_BITS):
    """Context manager: set working precision to prec+guard bits."""
    require_prec(prec)
    old = mp.prec
    mp.prec = prec + guard
    try:
        yield mp
    finally:
        mp.prec = old


def round_to(x, prec: int):
    """Round x down to prec bits (unary + re-rounds in mpmath)."""
    old = mp.prec
    mp.prec = require_prec(prec)
    try:
        return +x
    finally:
        mp.prec = old


def is_nonpositive_integer(x) -> bool:
    """Exact test on an mpf (no conversion: comparisons never round)."""
    return x <= 0 and mp.isint(x)


def gamma_fn(x, prec: int):
    """Gamma function; raises PoleError at nonpositive integers."""
    with workprec(prec):
        x = mpf(x)
        if is_nonpositive_integer(x):
            raise PoleError(f"gamma pole at {x}")
        v = mp.gamma(x)
    return round_to(v, prec)


def recip_gamma(x, prec: int):
    """Reciprocal gamma 1/Gamma(x); entire, exactly 0 at nonpositive integers."""
    with workprec(prec):
        x = mpf(x)
        if is_nonpositive_integer(x):
            return mpf(0)
        v = mp.rgamma(x)
    return round_to(v, prec)


LOG2E = 1.4426950408889634
# mpmath's besselk sums its 2F0 asymptotic series, in under 1 ms, once
# 2x log2(e) >= prec + 48 (measured for prec 96..480 and nu in [0, 1));
# below that it falls back to a 1F1 route that costs 4-130 ms at 160 bits
ASYMPTOTIC_BITS = 48
SERIES_GUARD = 32


def man_exp(x):
    """Signed (mantissa, exponent) of an mpf: x = man * 2^exp."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def to_fixed(man: int, exp: int, scale: int) -> int:
    """man * 2^(exp+scale) as an int, truncated toward zero, so negating
    man negates the result exactly."""
    k = exp + scale
    if k >= 0:
        return man << k
    return -(-man >> -k) if man < 0 else man >> -k


def _series_scale(x, prec: int, sin_bits: int) -> int:
    """Fixed-point scale W (bits) of the I series at x: prec, plus the
    bits lost to the e^(2x) cancellation in I_-nu - I_nu and to the
    factor 1/sin(nu pi), plus a guard."""
    return prec + int(2 * LOG2E * float(x)) + 1 + sin_bits + SERIES_GUARD


def _series(q: int, b: int, one: int, alternating: bool) -> int:
    """sum_k (-+q)^k / (k! (b)_k) with q, b > 0 and the result at scale
    one; the terms are held as magnitudes, so each truncates toward
    zero, and alternating flips the sign of the odd ones."""
    total = term = one
    k = 0
    while term:             # terms rise, then fall: 0 only past the peak
        k += 1
        term = term * q // (k * b)
        b += one
        total += -term if alternating and k & 1 else term
    return total


class _PmCore(NamedTuple):
    """The per-(nu, prec) part of the +-nu series pair (see _pm_core)."""
    nu: mpf
    nu_man_exp: tuple     # nu's (mantissa, exponent), for its fixed image
    c: mpf                # pi/(2 sin nu pi)
    g_minus: mpf          # 1/Gamma(1-nu)
    g_plus: mpf           # 1/Gamma(1+nu)
    sin_bits: int         # bits lost to 1/sin nu pi


@lru_cache(maxsize=32)
def _pm_core(nu, prec: int) -> _PmCore:
    """Set-up of the +-nu series pair for 0 <= nu < 1 at prec: nu = 0 is
    taken as 2^-(prec+32), and c, g_-+ are formed at the widest scale W
    of a series call at (nu, prec)."""
    if nu == 0:
        nu = mpf(2) ** -(prec + 32)
    with workprec(prec):
        sin_bits = max(0, -mp.mag(mp.sinpi(nu)))
    widest = 2 * prec + ASYMPTOTIC_BITS + sin_bits + SERIES_GUARD
    with workprec(widest):
        return _PmCore(nu, man_exp(nu), mp.pi / (2 * mp.sinpi(nu)),
                       mp.rgamma(1 - nu), mp.rgamma(1 + nu), sin_bits)


def _pm_series(core: _PmCore, x, w: int, alternating: bool, reflect):
    """reflect(A_-nu, A_nu) at the scale W = w, for x > 0: A_-+nu = S_-+
    g_-+ (x/2)^-+nu, with S_-+ = sum_k (+-x^2/4)^k / (k! (1-+nu)_k) - if
    alternating - summed in Python ints."""
    nu = core.nu
    one = 1 << w
    man, exp = man_exp(x)
    q = to_fixed(man * man, 2 * exp - 2, w)      # x^2/4
    nfix = to_fixed(*core.nu_man_exp, w)
    s_minus = _series(q, one - nfix, one, alternating)
    s_plus = _series(q, one + nfix, one, alternating)
    with workprec(w, guard=0):
        p = mp.exp(nu * mp.log(x / 2))           # (x/2)^nu
        return reflect(mpf((s_minus, -w)) * core.g_minus / p,
                       mpf((s_plus, -w)) * core.g_plus * p)


def besselk_map(nu, prec: int):
    """The map x -> K_nu(x) for mpf x > 0, read exactly as given, to
    relative accuracy about 2^-prec, with what depends only on (nu, prec)
    done once: nu's conversion, the mpmath fallback for |nu| >= 1 and the
    series set-up.

    For |nu| < 1 and x below the point where mpmath's asymptotic series
    converges (2x log2(e) < prec + ASYMPTOTIC_BITS), K_nu =
    pi/(2 sin nu pi) (I_-nu - I_nu) (DLMF 10.27.4), with the power series
    of both I summed in Python ints at the scale of _series_scale;
    nu = 0 is evaluated at nu = 2^-(prec+32), K being even in nu.  Other
    arguments go to mp.besselk at prec."""
    require_prec(prec)
    with workprec(prec):
        nu = abs(mpf(nu))
    core = _pm_core(nu, prec) if nu < 1 else None
    edge = prec + ASYMPTOTIC_BITS

    def reflect(i_minus, i_plus):
        return core.c * (i_minus - i_plus)

    def k(x):
        if core is None or 2 * LOG2E * float(x) >= edge:
            with workprec(prec, guard=0):
                return mp.besselk(nu, x)
        return round_to(_pm_series(
            core, x, _series_scale(x, prec, core.sin_bits), False, reflect),
            prec)

    return k


def besseljy_map(nu, prec: int):
    """The map s -> (J_nu(s), J_-nu(s), Y_nu(s)) for real s > 0, each to
    about 2^-prec relative to sqrt(J_nu^2 + Y_nu^2) (J has zeros), with
    what depends only on (nu, prec) done once: nu's conversion, the
    series set-up with the cos nu pi and 2c/pi of its reflection, and the
    cos nu pi and sin nu pi of the mpmath route.

    For 0 <= nu < 1 and s below mpmath's asymptotic crossover
    (s log2(e) < prec + ASYMPTOTIC_BITS), both J_+-nu come from their
    alternating power series (DLMF 10.2.2) summed in Python ints at the
    scale W = prec + sin_bits + SERIES_GUARD, and Y_nu = (J_nu cos nu pi -
    J_-nu) / sin nu pi (DLMF 10.2.3) is formed at W, before any rounding;
    nu = 0 is evaluated at nu = 2^-(prec+32), as in besselk_map.  Other
    arguments take J_nu and Y_nu from mp.besselj/mp.bessely at prec and
    J_-nu = J_nu cos nu pi - Y_nu sin nu pi.

    W needs no bits for the terms' growth to e^s: each term is formed
    from its truncated predecessor, so an error made at term k reaches
    the sum through the tail of the alternating series from k, which is
    no larger than term k, and the sum stays within a few units of 2^-W
    per term.  (besselk_map's scale does need 2x log2(e) bits, for the
    cancellation in I_-nu - I_nu.)
    """
    require_prec(prec)
    with workprec(prec):
        nu = mpf(nu)
        cos_nu, sin_nu = mp.cospi(nu), mp.sinpi(nu)
    core = _pm_core(nu, prec) if 0 <= nu < 1 else None
    edge = prec + ASYMPTOTIC_BITS
    if core is not None:
        w = prec + core.sin_bits + SERIES_GUARD
        with workprec(w, guard=0):
            cos_w, two_c_pi = mp.cospi(core.nu), 2 * core.c / mp.pi

    def reflect(j_minus, j_plus):        # Y_nu at W, before rounding
        return j_plus, j_minus, (j_plus * cos_w - j_minus) * two_c_pi

    def jy(s):
        with workprec(prec):
            s = mpf(s)
        if s <= 0:
            raise DomainError("besseljy_map needs s > 0")
        if core is None or LOG2E * float(s) >= edge:
            with workprec(prec, guard=0):
                j_plus, y = mp.besselj(nu, s), mp.bessely(nu, s)
            with workprec(prec):
                j_minus = j_plus * cos_nu - y * sin_nu
            return j_plus, round_to(j_minus, prec), y
        return tuple(round_to(v, prec)
                     for v in _pm_series(core, s, w, True, reflect))

    return jy


def besseljy_real(nu, s, prec: int):
    """(J_nu(s), J_-nu(s), Y_nu(s)) for real s > 0: besseljy_map(nu,
    prec)(s)."""
    return besseljy_map(nu, prec)(s)
