import pytest
from mpmath import mp, mpf

from oscq import quadrature
from oscq.mpfun import workprec
from oscq.quadrature import QuadratureError, quad_ts


def test_inverse_sqrt_endpoints():
    # truncation floor for d^(-1/2) integrands is ~2^-(prec+48)/2
    v, _ = quad_ts(lambda x: 1 / mp.sqrt(1 - x * x), [-1, 0, 1], 192)
    with workprec(256):
        assert abs(v - mp.pi) <= mpf(2) ** -96


def test_log_singularity():
    v, _ = quad_ts(mp.log, [0, 1], 192)
    with workprec(256):
        assert abs(v + 1) <= mpf(2) ** -150


def test_combined_singularity():
    v, _ = quad_ts(lambda x: mp.log(x) / mp.sqrt(x), [0, 1], 192)
    with workprec(256):
        assert abs(v + 4) <= mpf(2) ** -96


def test_smooth_high_precision():
    v, _ = quad_ts(lambda x: mp.exp(x), [0, 1], 512)
    with workprec(600):
        assert abs(v - (mp.e - 1)) <= mpf(2) ** -380


def test_split_points_and_degenerate_segments():
    # contract-level check; the kink at 0 sits on a split point
    v, _ = quad_ts(lambda x: abs(x), [-1, 0, 0, 1], 128)
    with workprec(192):
        assert abs(v - 1) <= mpf(2) ** -30


def test_nonconvergence_reports_value_and_error(monkeypatch):
    # target far below the engine's capability at this precision
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 4)
    with pytest.raises(QuadratureError) as exc:
        quad_ts(lambda x: 1 / mp.sqrt(1 - x * x), [-1, 0, 1], 64,
                target=mpf(2) ** -200)
    assert exc.value.value is not None
    assert exc.value.err is not None


def test_raise_on_fail_false_returns_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "MAX_LEVEL", 4)
    v, err = quad_ts(lambda x: 1 / mp.sqrt(1 - x * x), [-1, 0, 1], 64,
                     target=mpf(2) ** -200, raise_on_fail=False)
    with workprec(96):
        assert abs(v - mp.pi) < mpf("1e-9")
        assert err > mpf(2) ** -200
