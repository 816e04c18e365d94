import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from oscq import equilibrium as eq
from oscq import verify
from oscq.mpfun import DomainError, workprec
from oscq.quadrature import quad_ts

PREC = 192


def test_psi_vanishes_at_edges():
    assert eq.psi_real(1, PREC) == 0
    assert eq.psi_real(-1, PREC) == 0


def test_psi_closed_value():
    with workprec(256):
        ref = mp.log(2 + mp.sqrt(3)) / mp.pi
        assert abs(eq.psi_real(mpf(1) / 2, 256) - ref) <= mpf(2) ** -240


def test_psi_small_argument():
    got = eq.psi_real(mpf(10) ** -9, PREC)
    with workprec(256):
        ref = (mp.ln(2) + 9 * mp.ln(10)) / mp.pi
        assert abs(got - ref) <= mpf(10) ** -6 * ref


def test_psi_domain():
    with pytest.raises(DomainError):
        eq.psi_real(0, PREC)
    with pytest.raises(DomainError):
        eq.psi_real("1.5", PREC)


def test_psi_complex_matches_real_on_support():
    with workprec(256):
        x = mpf("0.37")
        assert abs(eq.psi_complex(x, 256) - eq.psi_real(x, 256)) \
            <= mpf(2) ** -240
        near_edge = eq.psi_complex(1 - mpf(10) ** -12, 256)
        assert abs(near_edge) < mpf(10) ** -5


def test_psi_complex_schwarz_reflection():
    with workprec(256):
        z = mpc(mpf(1) / 2, mpf(1) / 2)
        a = eq.psi_complex(z, 256)
        b = eq.psi_complex(mp.conj(z), 256)
        assert abs(a - mp.conj(b)) <= mpf(2) ** -240


def test_psi_complex_domain():
    with pytest.raises(DomainError):
        eq.psi_complex(mpc(-1, 1), PREC)
    with pytest.raises(DomainError):
        eq.psi_complex(mpf(2), PREC)


def test_cdf_endpoints_and_center():
    assert eq.psi_cdf(-1, PREC) == 0
    assert eq.psi_cdf(0, PREC) == mpf(1) / 2
    assert eq.psi_cdf(1, PREC) == 1


def test_cdf_against_quadrature():
    # closed antiderivative vs the tanh-sinh engine
    for xs in ("-0.62", "0.11", "0.9"):
        with workprec(320):
            x = mpf(xs)
            pts = [mpf(-1), x] if x <= 0 else [mpf(-1), mpf(0), x]
        v, _ = quad_ts(lambda t: eq.psi_real(t, 320), pts, 256)
        with workprec(320):
            assert abs(v - eq.psi_cdf(x, 256)) <= mpf(2) ** -60


def test_quantile_roundtrip():
    with workprec(256):
        for q in ("0.15", "0.5", "0.93"):
            x = verify.psi_quantile(q, 192)
            assert abs(eq.psi_cdf(x, 256) - mpf(q)) <= mpf(2) ** -180


def test_lagrange_constant():
    with workprec(256):
        ell = eq.ell_const(256)
        assert abs(ell + 2 + 2 * mp.ln(2)) <= mpf(2) ** -240
        assert abs(ell + mpf("3.386294361119890618834464")) <= mpf(10) ** -24


def test_g_total_mass_at_infinity():
    with workprec(256):
        z = mpc(0, 10 ** 6)
        assert abs(eq.g_fn(z, 192) - mp.log(z)) <= mpf(10) ** -5


def test_g_keeps_precision_at_large_argument():
    # i pi F and pi z/2 cancel down to log z; the guard bits must cover it
    z = mpf(10) ** 30
    got = eq.g_fn(z, PREC)
    with workprec(2 * PREC):
        ref = mp.log(z)   # g(z) = log z - O(z^-2)
        assert abs(got - ref) <= mpf(2) ** (8 - PREC) * ref


def test_g_real_beyond_support_and_phi_consistency():
    with workprec(384):
        g2 = eq.g_fn(mpf(2), 384)
        assert abs(mpc(g2).imag) <= mpf(2) ** -90
        ell = eq.ell_const(384)
        # strict variational inequality, 2 Re phi = 2 Re g - V - ell < 0
        # with V(2) = 2 pi
        assert 2 * mpc(g2).real - 2 * mp.pi - ell < 0


def test_g_near_the_cut_matches_boundary_values():
    # 1e-8 off the support, where the log potential is nearly singular,
    # g must be close to its boundary values g_+-
    for x, side in (("0.5", 1), ("-0.5", 1), ("-0.5", -1)):
        with workprec(PREC):
            z = mpc(mpf(x), side * mpf(10) ** -8)
        got = eq.g_fn(z, PREC)
        ref = verify.g_boundary(x, side, PREC)
        with workprec(PREC):
            assert abs(got - ref) <= mpf(10) ** -6


def test_g_jump_across_negative_axis():
    with workprec(256):
        jump = verify.g_boundary(-2, 1, 256) - verify.g_boundary(-2, -1, 256)
        assert abs(jump - 2 * mpc(0, 1) * mp.pi) <= mpf(2) ** -60


def test_phi_purely_imaginary_on_support():
    with workprec(256):
        x = mpf(1) / 2
        ph = verify.phi_boundary(x, 1, 256)
        assert abs(mpc(ph).real) <= mpf(2) ** -60
        ref = mp.pi * (1 - eq.psi_cdf(x, 256))
        assert abs(mpc(ph).imag - ref) <= mpf(2) ** -60


def test_phi_jump_on_imaginary_axis():
    with workprec(256):
        y = mpf("0.4")
        left = eq.phi_imag_side(y, "left", 256)
        right = eq.phi_imag_side(y, "right", 256)
        assert abs(right - (left - mp.pi * mpc(0, y))) <= mpf(2) ** -60


def test_re_phi_closed_form_values():
    with workprec(256):
        assert abs(eq.re_phi_imag_axis(1, 256)
                   - 2 * mp.log(1 + mp.sqrt(2))) <= mpf(2) ** -240
        s = mpf(10) ** -8
        lead = s * mp.log(1 / s) + s * mp.ln(2) + s
        assert abs(eq.re_phi_imag_axis(s, 256) - lead) <= mpf(10) ** -6 * lead


@given(e=st.floats(-200, 8), prec=st.sampled_from((128, 192)))
def test_re_phi_real_closed_form_matches_primitive(e, prec):
    # the real closed form keeps its relative accuracy as s -> 0, where
    # pi Im F(is) in complex arithmetic loses about log2(1/s) bits; the
    # oracle runs 320 bits wider to cover that loss
    s = mpf(2.0 ** e)
    got = eq.re_phi_imag_axis(s, prec)
    with workprec(prec + 320):
        ref = mp.pi * eq._primitive(mpc(0, s)).imag
        assert abs(got - ref) <= mpf(2) ** -(prec - 8) * ref


def test_re_phi_matches_quadrature_route():
    with workprec(256):
        s = mpf("0.3")
        cf = eq.re_phi_imag_axis(s, 256)
        quad = verify.g_by_quadrature(mpc(0, s), 256).real \
            - eq.ell_const(256) / 2
        assert abs(cf - quad) <= mpf(2) ** -60


def test_theta_endpoint_limit():
    with workprec(256):
        got = eq.theta_n(1 - mpf(10) ** -30, 5, 256)
        assert abs(got + mp.pi / 4) <= mpf(10) ** -14


def test_theta_real_on_support():
    th = eq.theta_n(mpf(1) / 2, 7, 256)
    assert th.imag == 0 if isinstance(th, mpc) else True


def test_theta_matches_phi_route():
    with workprec(256):
        x, n = mpf(1) / 2, 7
        th = verify.theta_by_quadrature(x, n, 256)
        intpart = th + mp.pi / 4 - mp.acos(x) / 4
        ref = (-mpc(0, 1) * n * verify.phi_boundary(x, 1, 256)).real
        assert abs(intpart - ref) <= mpf(2) ** -60


def test_theta_complex_path():
    with workprec(256):
        z = mpc("0.5", "0.05")
        th = eq.theta_n(z, 16, 256)
        # Schwarz symmetry of the phase integral
        th_conj = eq.theta_n(mp.conj(z), 16, 256)
        assert abs(th - mp.conj(th_conj)) <= mpf(2) ** -56


def test_psi_even_nonnegative_cdf_monotone():
    with workprec(192):
        prev = mpf(-1)
        for k in range(1, 40):
            x = mpf(-1) + 2 * mpf(k) / 40
            if x != 0:
                assert eq.psi_real(x, 192) >= 0
                assert eq.psi_real(-x, 192) == eq.psi_real(x, 192)
            c = eq.psi_cdf(x, 192)
            assert c >= prev
            prev = c


def test_epsilon_n_decreasing():
    with workprec(128):
        vals = [eq.epsilon_n(n, "0.25", 128) for n in (8, 16, 32, 64)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_suite_equilibrium_all_pass():
    records = verify.suite_equilibrium(prec=256)
    failures = [r for r in records if not r.passed]
    assert not failures, failures


# closed forms against the verify oracles (tanh-sinh quadrature of the
# defining integrals), to the oracles' own target 2^-(prec/4)
TARGET = mpf(2) ** -(PREC // 4)


@given(x=st.floats(-3, 3), y=st.floats(1e-3, 3), sign=st.sampled_from((1, -1)))
def test_g_matches_quadrature_oracle(x, y, sign):
    z = mpc(x, sign * y)
    got = eq.g_fn(z, PREC)
    ref = verify.g_by_quadrature(z, PREC)
    with workprec(PREC):
        assert abs(got - ref) <= TARGET * max(1, abs(ref))


@given(x=st.floats(0.2, 1), y=st.floats(-0.1, 0.1), n=st.integers(1, 200))
def test_theta_matches_quadrature_oracle(x, y, n):
    # Re z > 0 half of the validated oscillatory box
    assume(abs(complex(x, y) - 1) >= 0.2)
    z = mpc(x, y)
    got = eq.theta_n(z, n, PREC)
    ref = verify.theta_by_quadrature(z, n, PREC)
    with workprec(PREC):
        assert abs(got - ref) <= TARGET * max(1, abs(ref))
