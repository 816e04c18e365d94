import pytest
from mpmath import mp, mpc, mpf

from oscq import verify
from oscq.moments import MonicPolynomial, Variable
from oscq.mpfun import workprec
from oscq.zeros import ZeroSet, ecdf_vs_psi, find_zeros, zero_line_stats

from conftest import get_tilde, get_zeros

PREC = 256


def test_quadratic_roots():
    p = MonicPolynomial(recurrence=((0, 1), (0, -1)),   # x^2 + 1
                        variable=Variable.RAW_X, prec=PREC)
    zs = find_zeros(p)
    with workprec(PREC):
        assert abs(zs.roots[0] + mpc(0, 1)) <= mpf(2) ** -120
        assert abs(zs.roots[1] - mpc(0, 1)) <= mpf(2) ** -120


def test_rescaled_nu0_roots_on_real_axis():
    zs = get_zeros(2, 0)
    with workprec(PREC):
        ref = 1 / (2 * mp.pi)
        assert abs(zs.roots[0] + ref) <= mpf(2) ** -120
        assert abs(zs.roots[1] - ref) <= mpf(2) ** -120


def test_newton_residual_contract():
    zs = get_zeros(8, "0.25")
    assert max(zs.residuals) <= mpf(2) ** (-(zs.prec // 2))


def test_vieta_sum():
    zs = get_zeros(8, "0.25")
    tilde = get_tilde(8, "0.25")
    with workprec(zs.prec):
        c = -mp.fsum(a for a, _ in tilde.recurrence)   # c_{n-1}
        scale = max(1, abs(c))
        assert abs(mp.fsum(zs.roots) + c) <= \
            mpf(2) ** (-(zs.prec // 2) + 16) * scale


def test_determinism_bitwise():
    tilde = get_tilde(4, "0.25")
    a = find_zeros(tilde, prec=256)
    b = find_zeros(tilde, prec=256)
    assert a.roots == b.roots
    assert a.residuals == b.residuals


def test_zero_line_synthetic_exact():
    n = 10
    with workprec(PREC):
        nu = mpf("0.25")
        roots = tuple(mpc(x, -nu / (2 * n))
                      for x in [mpf("-0.8") + mpf("1.6") * k / (n - 1)
                                for k in range(n)])
    zs = ZeroSet(roots=roots, residuals=(mpf(0),) * n,
                 variable=Variable.RESCALED_Z, prec=PREC)
    st = zero_line_stats(zs, n, "0.25", "0.2")
    assert st.zeros_considered > 0
    assert st.max_dev <= mpf(2) ** (-PREC + 24)


def test_zero_line_empty_retained():
    zs = ZeroSet(roots=(mpc(0, 0),), residuals=(mpf(0),),
                 variable=Variable.RESCALED_Z, prec=PREC)
    st = zero_line_stats(zs, 2, "0.25", "0.2")
    assert st.zeros_considered == 0
    assert st.max_dev is None


def test_zero_line_requires_rescaled_frame():
    p = MonicPolynomial(recurrence=((-1, 1),),   # x + 1
                        variable=Variable.RAW_X, prec=PREC)
    zs = find_zeros(p)
    with pytest.raises(ValueError):
        zero_line_stats(zs, 1, "0.25", "0.2")


def test_ecdf_single_root_half():
    zs = ZeroSet(roots=(mpc(0, 0),), residuals=(mpf(0),),
                 variable=Variable.RESCALED_Z, prec=PREC)
    with workprec(PREC):
        assert abs(ecdf_vs_psi(zs) - mpf(1) / 2) <= mpf(2) ** -200


def test_imaginary_axis_law_nu0():
    for n in (2, 8, 16):
        zs = get_zeros(n, 0)
        with workprec(zs.prec):
            worst = max(abs(n * mp.pi * w.imag) for w in zs.roots)
            assert worst <= mpf(10) ** (-mpf("0.1") * zs.prec), n


def test_pipeline_ecdf_convergence():
    d = ecdf_vs_psi(get_zeros(16, "0.25"))
    with workprec(128):
        assert d <= mpf("0.15")


def test_suite_zeros_all_pass():
    records = verify.suite_zeros(prec=256)
    failures = [r for r in records if not r.passed]
    assert not failures, failures
