import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from oscq import mpfun
from oscq.mpfun import (ASYMPTOTIC_BITS, LOG2E, SERIES_GUARD, DomainError,
                        PoleError, besseljy_real, besselk_real, gamma_fn,
                        recip_gamma, round_to, workprec)

from conftest import rel_agrees

PREC = 128


def test_recip_gamma_poles_and_values():
    assert recip_gamma(0, PREC) == 0
    assert recip_gamma(-3, PREC) == 0
    with workprec(256):
        ref = 1 / mp.sqrt(mp.pi)
    assert rel_agrees(recip_gamma(mpf(1) / 2, 256), ref, mpf(2) ** -240)


def test_gamma_values_and_pole():
    assert gamma_fn(5, PREC) == 24
    with workprec(256):
        assert rel_agrees(gamma_fn(mpf(1) / 2, 256), mp.sqrt(mp.pi),
                          mpf(2) ** -240)
        assert rel_agrees(gamma_fn(mpf(-1) / 2, 256), -2 * mp.sqrt(mp.pi),
                          mpf(2) ** -240)
    with pytest.raises(PoleError):
        gamma_fn(-2, PREC)


def test_recip_gamma_inverse_identity_sweep():
    rng = random.Random(1234)
    prec = 128
    with workprec(prec + 64):
        worst = mpf(0)
        for _ in range(1000):
            x = mpf(rng.uniform(0.01, 20))
            if abs(x - mp.nint(x)) < mpf("1e-3"):
                continue
            worst = max(worst,
                        abs(recip_gamma(x, prec) * gamma_fn(x, prec) - 1))
        assert worst <= mpf(2) ** (-prec + 20)


def test_precision_scaling():
    # doubling prec improves the self-consistency residual by >= 2^(prec/2)
    xs = [mpf("0.731"), mpf("3.417"), mpf("11.03")]
    prec = 128

    def worst(p):
        with workprec(4 * p):
            return max(abs(recip_gamma(x, p) * gamma_fn(x, p) - 1)
                       for x in xs)

    r1, r2 = worst(prec), worst(2 * prec)
    with workprec(512):
        assert r2 <= max(r1 * mpf(2) ** (-prec // 2), mpf(2) ** -300)


def test_min_precision_enforced():
    with pytest.raises(ValueError):
        gamma_fn(2, 32)


def _besselk_error(nu, x, prec):
    """|besselk_real - K| / K in units of 2^-prec, K from mp.besselk at
    prec + 64 bits."""
    got = besselk_real(nu, x, prec)
    with workprec(prec + 64):
        ref = mp.besselk(mpf(nu), mpf(x))
        return abs(got - ref) / ref * mpf(2) ** prec


# x log-uniform on [2^-200, 2^8], half the draws from [1, 2^8], so both
# branches are reached: the series below 2x log2(e) = prec +
# ASYMPTOTIC_BITS (x < 39 at 64 bits, x < 172 at 448), mp.besselk above
@given(nu=st.one_of(st.sampled_from((0.0, 1e-6, 0.5, 0.999999)),
                    st.floats(0, 1, exclude_max=True)),
       x=st.one_of(st.floats(-200, 8), st.floats(0, 8)).map(
           lambda e: 2.0 ** e),
       prec=st.sampled_from((64, 128, 192, 448)))
def test_besselk_real_matches_mpmath(nu, x, prec):
    assert _besselk_error(nu, x, prec) <= 16


# a point where each piece of the series matters: e^(2x) cancellation,
# nu near 0 and 1, nu = 0 itself, and small x, where (x/2)^nu amplifies
# the rounding that the guard bits absorb
BROKEN_SERIES_CASES = ((0.25, 40.0, 128), (1e-6, 1.0, 128), (0.0, 0.5, 128),
                       (0.999999, 3.0, 128), (0.3, 0.01, 192),
                       (0.8, 1e-59, 128))


def _wrong_gamma(consts):
    def constants(nu, prec):        # 1/Gamma(1+nu) to only prec/2 bits
        c, g_minus, g_plus, sin_bits = consts(nu, prec)
        return c, g_minus, round_to(g_plus, prec // 2), sin_bits
    return constants


def _scale_without_cancellation(x, prec, sin_bits):
    return prec + sin_bits + SERIES_GUARD


def _scale_without_sin_bits(x, prec, sin_bits):
    return prec + int(2 * LOG2E * float(x)) + 1 + SERIES_GUARD


def test_besselk_real_cases_pass():
    assert max(_besselk_error(*c) for c in BROKEN_SERIES_CASES) <= 16


@pytest.mark.parametrize("attr, broken", [
    ("_series_constants", _wrong_gamma(mpfun._series_constants)),
    ("_series_scale", _scale_without_cancellation),
    ("_series_scale", _scale_without_sin_bits),
    ("SERIES_GUARD", 0),
])
def test_besselk_real_check_catches_a_broken_series(monkeypatch, attr,
                                                    broken):
    monkeypatch.setattr(mpfun, attr, broken)
    assert max(_besselk_error(*c) for c in BROKEN_SERIES_CASES) > 16


def test_besselk_real_branches(monkeypatch):
    calls = []
    besselk = mp.besselk

    def counted(*args):
        calls.append(args)
        return besselk(*args)

    monkeypatch.setattr(mp, "besselk", counted)
    prec = 128
    edge = (prec + ASYMPTOTIC_BITS) / (2 * LOG2E)
    for nu, x, used in ((0.25, edge * 0.99, 0), (0.25, edge * 1.01, 1),
                        (1.5, 3.0, 1), (-0.25, 3.0, 0)):
        before = len(calls)
        besselk_real(nu, x, prec)
        assert len(calls) - before == used
        assert _besselk_error(nu, x, prec) <= 16
    with pytest.raises(DomainError):
        besselk_real(0.25, 0, prec)


def _besseljy_error(nu, s, prec):
    """Largest error of the (J_nu, J_-nu, Y_nu) triple of
    mpfun.besseljy_real, in units of 2^-prec relative to sqrt(J_nu^2 +
    Y_nu^2) (J has zeros; |J_-nu| is no larger), against mp.besselj and
    mp.bessely at prec + 64 bits."""
    got = mpfun.besseljy_real(nu, s, prec)
    with workprec(prec + 64):
        nu, s = mpf(nu), mpf(s)
        ref = (mp.besselj(nu, s), mp.besselj(-nu, s), mp.bessely(nu, s))
        size = mp.sqrt(ref[0] ** 2 + ref[2] ** 2)
        return max(abs(g - r) for g, r in zip(got, ref)) / size \
            * mpf(2) ** prec


# s log-uniform on [2^-200, 2^9], half the draws from [1, 2^9], so both
# branches are reached: the series below s log2(e) = prec +
# ASYMPTOTIC_BITS (s < 78 at 64 bits, s < 344 at 448), mpmath above
@given(nu=st.one_of(st.sampled_from((0.0, 1e-6, 0.5, 0.999999)),
                    st.floats(0, 1, exclude_max=True)),
       s=st.one_of(st.floats(-200, 9), st.floats(0, 9)).map(
           lambda e: 2.0 ** e),
       prec=st.sampled_from((64, 128, 192, 448)))
def test_besseljy_real_matches_mpmath(nu, s, prec):
    assert _besseljy_error(nu, s, prec) <= 16


# nu = 0 itself and nu near 0, where Y_nu divides by sin nu pi; nu near 1;
# large s, where each of many terms adds its truncation; small s, where
# (s/2)^-nu amplifies the rounding that the guard bits absorb
BROKEN_JY_CASES = ((0.0, 0.5, 128), (1e-6, 1.0, 128), (0.999999, 3.0, 128),
                   (0.25, 40.0, 128), (0.3, 0.01, 192), (0.8, 1e-59, 128))


def _without_sin_bits(consts):
    def constants(nu, prec):
        return consts(nu, prec)[:3] + (0,)
    return constants


def _y_at_narrow_precision(nu, s, prec):
    """Y_nu formed from J_+-nu already rounded to prec + 16 bits."""
    j_plus, j_minus, _ = besseljy_real(nu, s, prec + 16)
    with workprec(prec + 16, guard=0):
        nu = mpf(nu) or mpf(2) ** -(prec + 32)
        y = (j_plus * mp.cospi(nu) - j_minus) / mp.sinpi(nu)
    return (round_to(j_plus, prec), round_to(j_minus, prec),
            round_to(y, prec))


def test_besseljy_real_cases_pass():
    assert max(_besseljy_error(*c) for c in BROKEN_JY_CASES) <= 16


@pytest.mark.parametrize("attr, broken", [
    ("_series_constants", _without_sin_bits(mpfun._series_constants)),
    ("SERIES_GUARD", 0),
    ("besseljy_real", _y_at_narrow_precision),
])
def test_besseljy_real_check_catches_a_broken_series(monkeypatch, attr,
                                                     broken):
    monkeypatch.setattr(mpfun, attr, broken)
    assert max(_besseljy_error(*c) for c in BROKEN_JY_CASES) > 16


def test_besseljy_real_branches(monkeypatch):
    calls = []
    besselj = mp.besselj

    def counted(*args):
        calls.append(args)
        return besselj(*args)

    monkeypatch.setattr(mp, "besselj", counted)
    prec = 128
    edge = (prec + ASYMPTOTIC_BITS) / LOG2E
    for nu, s, used in ((0.25, edge * 0.99, False),
                        (0.25, edge * 1.01, True), (1.5, 3.0, True),
                        (-0.25, 3.0, True), (0.0, 3.0, False)):
        before = len(calls)
        besseljy_real(nu, s, prec)
        assert (len(calls) > before) == used
        assert _besseljy_error(nu, s, prec) <= 16
    with pytest.raises(DomainError):
        besseljy_real(0.25, 0, prec)
