"""Arbitrary-precision scalar layer: precision plumbing, gamma and 1/gamma.

Values are mpmath ``mpf`` / ``mpc`` (aliased ``BigReal`` / ``BigComplex``);
every operation takes an explicit working precision in bits and evaluates
internally with guard bits before rounding down to the requested precision.
Relative error contract for the gamma functions: <= 2**(-prec+16).  The
other layers call mpmath's Bessel functions (``mp.besselk``) directly.

mpmath rounds on every construction and operation at the ambient context,
so all argument conversion happens inside the functions' own workprec
blocks; results round down to the requested precision on the way out.

The precision context is process-global (mpmath's mp); all functions are
pure in their inputs, but for parallel workloads use processes rather
than threads.
"""

from __future__ import annotations

from contextlib import contextmanager

from mpmath import mp, mpc, mpf

BigReal = mpf
BigComplex = mpc

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
