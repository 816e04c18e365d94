import random

import pytest
from mpmath import mp, mpf

from oscq.mpfun import PoleError, gamma_fn, recip_gamma, workprec

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
