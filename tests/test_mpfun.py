import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpf

from oscq import mpfun
from oscq.mpfun import (ASYMPTOTIC_BITS, LOG2E, SERIES_GUARD, DomainError,
                        PoleError, besseljy_real, besselk_map, gamma_fn,
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


def _besselk(nu, x, prec):
    """K_nu(x) on the real axis by besselk_map(nu, prec), the float x read
    as an exact mpf."""
    return besselk_map(nu, prec)(mpf(x))


def _besselk_error(nu, x, prec):
    """|besselk_map - K| / K in units of 2^-prec, K from mp.besselk at
    prec + 64 bits."""
    got = _besselk(nu, x, prec)
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
        _besselk(nu, x, prec)
        assert len(calls) - before == used
        assert _besselk_error(nu, x, prec) <= 16


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


def _hexbits(v):
    """An mpf's exact value: signed mantissa in hex, p, exponent."""
    man, exp = mpfun.man_exp(v)
    return f"{man:#x}p{exp}"


# exact results on both branches, from x = 1e-59 to just past the
# crossover to mpmath (K at 40 for 64 bits and 173 for 448, J at 79 and
# 345): the tests above allow 16 units of 2^-prec, so a restructured
# series that moves a bit passes them and fails these
BESSELK_PINS = {
    (0.0, 1e-59, 64):
        "0x87f7ec786da79d55p-56",
    (1e-06, 1e-30, 448):
        "0x8a631061d36a2525b2d6009ef843ee712f9a71debbd27add74a3c0a19d104c7b86d"
        "3a343cfcf0653c24d0f9693e58d4b98a945f6d790c3bbp-441",
    (0.25, 1e-09, 128):
        "0x5fd66621e20eebff27dab7f64a869cefp-118",
    (0.999999, 0.5, 160):
        "0xd40633b8bc70cac050f17aae0a15f184794886b9p-159",
    (0.25, 3.0, 192):
        "0x8f97fcd65e7b916278d4856fc27d2986bee120600de4e7b1p-196",
    (1e-06, 20.0, 128):
        "0x4ee82f4c129ec0288de37db9f3544577p-157",
    (0.999999, 38.0, 64):
        "0x76e2a3d9b03005b3p-120",
    (0.25, 40.0, 64):
        "0x7bf3cfd9489203b1p-123",
    (0.0, 171.0, 448):
        "0x3c55b4f6cd6c2a0aeed07252fbafb2a598b69049311ec8bef8182a536cab9dbac60"
        "ce4b3a5c5233bb7e68c1ef641405d6145bc3534047847p-696",
    (0.999999, 173.0, 448):
        "0x2090fc47971b6b0948f98cc970b3685372f7effbc41fc824094614b49ac0b0eaeff"
        "b7d66e61149f23742214d9710ccfba8b5b5da41f2e863p-698",
}
BESSELJY_PINS = {
    (0.0, 1e-59, 64): (
        "0x1p0",
        "0x1p0",
        "-0x568f6997aaa1a899p-56"),
    (1e-06, 1e-30, 448): (
        "0xfffb772a868fd0fb211b31c797f58bfb874a462266c90e6fed1b98d804fd1438a70"
        "9bfbf65ea4b7723a36f36374ee7e34d80432fea3ab93bp-448",
        "0x4001223a81f36c73c10e3c94f8b2ab58e6ba2af30c6344e9c946f00f58007be35df"
        "10e9d6624be976ba225b58ec63f66485ebc68262bed51p-446",
        "-0x1606647e7753229c36a540c7a8b2297214ccc606fc92de76d26c69628d9a787074"
        "18e091b67d36a078330679a4e02edc27e425602d2add77p-439"),
    (0.25, 1e-09, 128): (
        "0xaaf36d2ba3123f6e32b3c095b717c7d9p-135",
        "0x159258cc308fa73bd4321ed613b3dbe7p-117",
        "-0xf40ce319f60779f9862ed026072abf0bp-120"),
    (0.999999, 0.5, 160): (
        "0xf8155621f4fddfe8dacb4f4c4474954f7384342fp-162",
        "-0xf8141fe7799eb5fcc29ff93eb787c603a238785p-158",
        "-0x5e2c9537a89bf598e0050d5e2737f45370ce3e23p-158"),
    (0.25, 3.0, 192): (
        "-0xce1ace20bbd1ccf95076939acbe95f329b2fd2ac3334a52dp-195",
        "-0x6333a2d5f53cc9aedc56df9f416352806cb4a2a966c8a74dp-192",
        "0xe50f012fb6b28906201a2da4103832a2db2e5b1b8fd43b41p-193"),
    (1e-06, 40.0, 128): (
        "0x78b3cef0f3b8ac12d687dc4dcb7527ffp-134",
        "0x3c591310006cb3da734edaa63f84c5e5p-133",
        "0x101eaf237834e4cbfb3d488362a93147p-127"),
    (0.999999, 77.0, 64): (
        "0x8850ff28b6cba33p-63",
        "-0x2214394259817c31p-65",
        "-0x7ee064a87c39eaedp-67"),
    (0.25, 79.0, 64): (
        "-0x45299fbee8d06e91p-66",
        "-0xb77112e5403646f9p-67",
        "0xf2337a9c32b6a62fp-68"),
    (0.0, 343.0, 448): (
        "-0xac3be4c2158b951adf637acbd98328935c7df5f7bc50de186d7a4d538142a44fda"
        "20638e1c52fee6918d2713cd7d4207ed71a94beba6f47p-448",
        "-0xac3be4c2158b951adf637acbd98328935c7df5f7bc50de186d7a4d538142a44fda"
        "20638e1c52fee6918d2713cd7d4207ed71a94beba6f47p-448",
        "0x99990d485eb4cb006d9ec2af58690df20976f97d5652d8a702041a437eb309afadc"
        "90f21902ac9d4f0808ed5a32896d75580bc441a70329p-450"),
    (0.999999, 345.0, 448): (
        "-0x2b0268ced2d69786b221fc5478f75ca962feba6a4b9a848ac0361c64f19cf067e8"
        "fac9fc15f6ea74e983182313f4866fe893382e127e7e17p-450",
        "0xac09aad4408305e07d1cb0723cfad0ef9b5da09e528247fbf952babcef8ceafc144"
        "aba56629c650f6c906ff5218b017f735bfdb3b86a8575p-452",
        "-0x49cd8c4d0338938f891531dedbfc61ee354f766b1f02542877c238a3ce4d044198"
        "d34e0f58a59d87cbfb721d12c86db21e67c91eae7888ffp-453"),
}



def test_besselk_real_bit_pins():
    moved = [args for args, pin in BESSELK_PINS.items()
             if _hexbits(_besselk(*args)) != pin]
    assert not moved, f"besselk_map moved at {moved}"


def test_besseljy_real_bit_pins():
    moved = [args for args, pin in BESSELJY_PINS.items()
             if tuple(map(_hexbits, besseljy_real(*args))) != pin]
    assert not moved, f"besseljy_real moved at {moved}"
