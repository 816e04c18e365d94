import random

import pytest
from mpmath import mp, mpc, mpf

from oscq import equilibrium as eq
from oscq import parametrix as px
from oscq import verify
from oscq.mpfun import DomainError, workprec
from oscq.smallnorm import EPS_DEFAULT

from conftest import get_tilde

PREC = 192
NU = "0.25"


def test_weight_half_integer_closed_form():
    # sqrt(2n) K_(1/2)(n pi x) e^(n pi x) collapses to x^(-1/2)
    with workprec(320):
        x = mpf("0.3")
    got = px.w_weight(x, 10, "0.5", 256)
    with workprec(320):
        assert abs(got - x ** mpf("-0.5")) <= mpf(2) ** -240


def test_weight_normalization_estimate():
    with workprec(256):
        x = mpf("0.5")
        got = px.w_weight(x, 100, NU, 256)
        assert abs(got * mp.sqrt(x) - 1) <= 2 / (100 * x)


def test_weight_evenness_and_domain():
    with workprec(256):
        a = px.w_weight(mpf("-0.4"), 12, NU, 256)
        b = px.w_weight(mpf("0.4"), 12, NU, 256)
        assert abs(a - b) <= mpf(2) ** -200
    with pytest.raises(DomainError):
        px.w_weight(mpc(0, 1), 12, NU, 256)


def test_weight_one_sided_limits_conjugate():
    with workprec(256):
        wp = px.w_pm_imag(mpf("0.2"), "+", 16, NU, 256)
        wm = px.w_pm_imag(mpf("0.2"), "-", 16, NU, 256)
        assert abs(wp - mp.conj(wm)) <= mpf(2) ** -200 * abs(wp)


def test_szego_power_trivial_and_limit():
    assert px.szego_power(mpc(2, 1), 0, PREC) == 1
    with workprec(256):
        lim = px.szego_power(mpf(10) ** 9, mpf("-0.5"), 256)
        assert abs(lim - mpf(2) ** mpf("0.25")) <= mpf(10) ** -8
        ref = (2 / (2 + mp.sqrt(3))) ** (-mpf(1) / 4)
        assert abs(px.szego_power(2, mpf("-0.5"), 256) - ref) <= mpf(2) ** -240


def test_d1n_grid_and_adaptive_agree():
    z = mpc("0.3", "0.6")
    a = px.d1n(z, 12, NU, PREC)
    b = px.d1n(z, 12, NU, PREC, adaptive=True)
    with workprec(256):
        assert abs(a - b) <= mpf(2) ** -44 * abs(a)


def test_d1_grid_cache_bit_identical():
    g1 = px.build_d1_grid(9, NU, 128)
    g2 = px.build_d1_grid(9, NU, 128)
    assert g1.nodes == g2.nodes and g1.wk == g2.wk
    z = mpc("0.1", "0.4")
    assert px.d1n(z, 9, NU, 128, grid=g1) == px.d1n(z, 9, NU, 128, grid=g2)
    # the module cache serves the same values as a fresh build
    assert px.d1n(z, 9, NU, 128) == px.d1n(z, 9, NU, 128, grid=g2)


def test_d1_grid_cache_keys_on_exact_nu():
    # nu values that agree to 40 digits but differ at 128 bits get two grids
    near = NU + "0" * 40 + "1"
    px._get_grid(9, NU, 128)
    grid = px._get_grid(9, near, 128)
    fresh = px.build_d1_grid(9, near, 128)
    assert grid.nu == fresh.nu and grid.wk == fresh.wk
    # and d1n reads that grid rather than building one for a rounded nu
    misses = px._cached_grid.cache_info().misses
    px.d1n(mpc("0.1", "0.4"), 9, near, 128)
    assert px._cached_grid.cache_info().misses == misses


def test_d1n_schwarz_reflection_on_axis_bitwise():
    # the small-norm kernels read D1 once per axis point and take
    # D1(-iy) = conj D1(iy), so the grid sum must honour it to the last bit
    rng = random.Random(4)
    for nu in ("0.25", "0.5"):
        grid = px._get_grid(16, nu, 128)
        for _ in range(20):
            with workprec(128):
                y = 2 * EPS_DEFAULT * (1 - mpf(rng.random()))  # (0, 2 eps]
                up, down = mpc(0, y), mpc(0, -y)
            a = px.d1n(up, 16, nu, 128, grid=grid)
            b = px.d1n(down, 16, nu, 128, grid=grid)
            with workprec(128):
                assert b._mpc_ == mp.conj(a)._mpc_, (nu, y)


def test_d2_mapping_values():
    with workprec(256):
        nu = mpf(NU)
        assert abs(px.d2(mpf(10) ** 9, nu, 256) - 1) <= mpf(10) ** -8
        for sgn in (1, -1):
            ref = mp.exp(-sgn * nu * mp.pi * mpc(0, 1) / 4)
            got = px.d2(sgn * (1 + mpf(10) ** -24), nu, 256)
            assert abs(got - ref) <= mpf(10) ** -10
        # purely imaginary arguments give real values in (0,1) above
        v = px.d2(mpc(0, "0.3"), nu, 256)
        assert abs(mpc(v).imag) <= mpf(2) ** -240
        assert 0 < mpc(v).real < 1


def test_d2_boundary_product():
    with workprec(256):
        nu = mpf(NU)
        h = mpf(2) ** -100
        x = mpf("0.5")
        prod = px.d2(x + h * mpc(0, 1), nu, 256) \
            * px.d2(x - h * mpc(0, 1), nu, 256)
        ref = mp.exp(-nu * mp.pi * mpc(0, 1) / 2)
        assert abs(prod - ref) <= mpf(2) ** -80


def test_d2_psi_quadrant_identity():
    for z in (mpc("0.5", "0.2"), mpc("0.5", "-0.2"), mpc("-0.3", "0.4")):
        assert px.d2_psi_consistency(z, NU, 256) <= mpf(2) ** -128


def test_n0_matrix_properties():
    with workprec(256):
        m = px.n0_matrix(mpf(2), 256)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - 1) <= mpf(2) ** -230
        m = px.n0_matrix(mpf(10) ** 6, 256)
        assert max(abs(m[0, 0] - 1), abs(m[0, 1])) <= mpf(10) ** -5
        h = mpf(2) ** -80
        x = mpf("0.3")
        np_ = px.n0_matrix(x + h * mpc(0, 1), 256)
        nm = px.n0_matrix(x - h * mpc(0, 1), 256)
        jump = nm * mp.matrix([[0, 1], [-1, 0]])
        dev = max(abs(np_[i, j] - jump[i, j])
                  for i in range(2) for j in range(2))
        assert dev <= mpf(2) ** -60


def test_outer_eval_against_polynomial():
    tilde = get_tilde(16, NU)
    pred = px.outer_eval(mpc(0, 2), 16, NU, 256)
    with workprec(256):
        actual = tilde.eval(mpc(0, 2), tilde.prec)
        ratio = abs(actual / pred.value - 1)
        assert ratio <= pred.error_scale  # observed C is well below 1


def test_outer_eval_nu_zero_drops_phase_factor():
    # the phase Szego factor is identically 1 at nu=0
    assert px.d2(mpc(0, 2), 0, PREC) == 1
    a = px.outer_eval(mpc(0, 2), 8, 0, 192)
    with workprec(256):
        g = eq.g_fn(mpc(0, 2), 192)
        b = px.beta_quartic(mpc(0, 2))
        manual = mp.exp(8 * g) * mpf(2) ** mpf("0.25") * (b + 1 / b) / 2 \
            * px.szego_power(mpc(0, 2), mpf("0.5"), 192)
        assert abs(a.value - manual) <= mpf(2) ** -40 * abs(manual)


def test_outer_prefactor_tends_to_one():
    with workprec(256):
        z = mpf(10) ** 8
        pred = px.outer_eval(z, 4, NU, 192)
        g = eq.g_fn(z, 192)
        assert abs(pred.value / mp.exp(4 * g) - 1) <= mpf(10) ** -7


def test_outer_domain_guard():
    with pytest.raises(DomainError):
        px.outer_eval(mpf("0.5"), 8, NU, 192)


def test_outer_ratio_error_decreasing_in_n():
    # the measured outer-formula error should shrink with n (one violation
    # allowed: the order constant is unknown)
    z = mpc(0, 2)
    ratios = []
    for n in (8, 16, 32, 64):
        tilde = get_tilde(n, NU)
        pred = px.outer_eval(z, n, NU, 256)
        with workprec(320):
            ratios.append(abs(tilde.eval(z, tilde.prec) / pred.value - 1))
    violations = sum(1 for a, b in zip(ratios, ratios[1:]) if b >= a)
    assert violations <= 1, [str(r) for r in ratios]


def test_inner_nu0_bracket_is_cosine():
    with workprec(256):
        x, n = mpf("0.5"), 12
        pref, tp, tm = px.inner_terms(x, n, 0, 256)
        th = eq.theta_n(x, n, 256)
        bracket = tp + tm
        assert abs(mpc(bracket).imag) <= mpf(2) ** -60
        assert abs(bracket - 2 * mp.cos(th)) <= mpf(2) ** -56


def test_inner_zero_line_balance():
    # on the predicted zero line the two oscillatory terms have equal
    # modulus up to O(1/n)
    with workprec(256):
        n = 32
        nu = mpf(NU)
        z = mpf("0.5") - mpc(0, 1) * nu / (2 * n)
        _, tp, tm = px.inner_terms(z, n, nu, 256)
        assert abs(abs(tp / tm) - 1) <= mpf(10) / n


def test_inner_matches_polynomial():
    tilde = get_tilde(16, NU)
    x = mpf("0.5")
    pred = px.inner_eval(x, 16, NU, 256)
    with workprec(256):
        actual = tilde.eval(x, tilde.prec)
        assert abs(actual - pred.value) <= \
            abs(pred.value) * pred.error_scale * 3


def test_inner_reflection_even_degree():
    z = mpc("0.4", "-0.05")
    a = px.inner_eval(-mp.conj(z), 16, NU, 256)
    b = px.inner_eval(z, 16, NU, 256)
    with workprec(256):
        assert abs(a.value - mp.conj(b.value)) <= \
            mpf(2) ** -40 * abs(b.value)


def test_outer_reflection_even_degree():
    z = mpc("1.2", "0.9")
    a = px.outer_eval(-mp.conj(z), 16, NU, 256)
    b = px.outer_eval(z, 16, NU, 256)
    with workprec(256):
        assert abs(a.value - mp.conj(b.value)) <= \
            mpf(2) ** -40 * abs(b.value)


def test_inner_domain_guards():
    for bad in (mpf("0.15"), mpc("0.5", "0.3"), mpf("0.95"), mpf("1.5")):
        with pytest.raises(DomainError):
            px.inner_eval(bad, 16, NU, 192)


def test_error_scale_decreasing():
    with workprec(128):
        outer = [px.outer_eval(mpc(0, 2), n, NU, 128).error_scale
                 for n in (8, 16, 32)]
        assert outer[0] > outer[1] > outer[2]
        inner = [px.inner_eval(mpf("0.5"), n, NU, 128).error_scale
                 for n in (8, 16, 32)]
        assert inner[0] > inner[1] > inner[2]


def test_zero_condition_defect_off_line():
    # no zeros with Im z >= 0: the defect is bounded away from 0 there
    with workprec(192):
        for k in range(10):
            x = mpf("0.25") + mpf("0.5") * k / 9
            d = px.zero_condition_defect(mpc(x, "0.05"), 16, NU, 192)
            assert d >= mpf("0.1"), (k, mp.nstr(d, 6))


def test_zero_condition_defect_nu0_real():
    assert px.zero_condition_defect(mpf("0.5"), 16, 0, 192) <= mpf(2) ** -60


def test_zero_condition_defect_at_computed_zeros():
    # at true zeros inside the validated box the defect obeys one global
    # constant times the master scale; fit at n=16, assert with slack 3
    from conftest import get_zeros

    def worst_ratio(n):
        zs = get_zeros(n, NU)
        with workprec(256):
            delta = mpf("0.2")
            eps = eq.epsilon_n(n, NU, 256)
            worst = mpf(0)
            used = 0
            for w in zs.roots:
                if abs(w) < delta or abs(w - 1) < delta \
                        or abs(w + 1) < delta or abs(w.imag) > mpf("0.1"):
                    continue
                worst = max(worst,
                            px.zero_condition_defect(w, n, NU, 192) / eps)
                used += 1
            assert used > 0
            return worst

    c16 = worst_ratio(16)
    for n in (32, 64):
        assert worst_ratio(n) <= 3 * c16, n


def test_suite_parametrix_all_pass():
    records = verify.suite_parametrix(prec=192)
    failures = [r for r in records if not r.passed]
    assert not failures, failures
