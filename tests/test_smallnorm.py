from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from oscq import parametrix as px
from oscq import smallnorm as sn
from oscq import verify
from oscq.mpfun import round_to, workprec

from conftest import counting_grid_builds, get_k_norm_reads, get_k_norms

NU = "0.25"
PREC = 128


def test_cutoff_partition():
    chi = sn.CutoffChi()
    with workprec(128):
        assert chi(mpf("0.05"), 96) == 1
        assert chi(chi.eps, 96) == 1
        assert chi(2 * chi.eps, 96) == 0
        assert chi(mpf("0.3"), 96) == 0
        mid = chi(mpf("0.18"), 96)
        assert 0 < mid < 1
        # even in y
        assert chi(mpf("-0.18"), 96) == mid


class _UnroundedTailChi(sn.CutoffChi):
    """The same bump without the cut at 2^-(prec+1): the tail next to
    2 eps is returned however small."""

    def __call__(self, y, prec: int):
        with workprec(prec):
            y = abs(mpf(y))
            if y <= self.eps:
                return mpf(1)
            if y >= 2 * self.eps:
                return mpf(0)
            t = (y - self.eps) / self.eps
            a = mp.exp(-1 / t)
            b = mp.exp(-1 / (1 - t))
            v = b / (a + b)
        return round_to(v, prec)


@pytest.mark.parametrize("prec", (96, 128, 192))
def test_cutoff_absolute_accuracy(prec):
    # values below 2^-(prec+1) are exact 0, all others are unchanged
    chi, raw = sn.CutoffChi(), _UnroundedTailChi()
    cut = kept = 0
    with workprec(prec):
        ys = [chi.eps * (1 + mpf(i) / 200) for i in range(1, 200)]
        ys += [chi.eps * (2 - mpf(2) ** -j) for j in range(1, 24)]
    for y in ys:
        got, ref = chi(y, prec), raw(y, prec)
        if ref < mpf(2) ** -(prec + 1):
            assert got == 0, y
            cut += 1
        else:
            assert got._mpf_ == ref._mpf_, y
            kept += 1
    assert cut and kept


@pytest.mark.parametrize("n", (2, 16, 64))
@pytest.mark.parametrize("nu", ("0.05", "0.99"))
def test_k_norm_bounds_chi_tail_is_bit_identical(n, nu):
    # the nodes where chi is cut to 0 add nothing the integrals can see
    lib = sn.k_norm_bounds(n, nu, prec=PREC)
    with mock.patch.object(sn, "CutoffChi", _UnroundedTailChi):
        raw = sn.k_norm_bounds(n, nu, PREC)
    for key in ("k1_bound", "k2_bound", "product"):
        assert lib[key]._mpf_ == raw[key]._mpf_, key


def test_cutoff_constants():
    # the construction's condition on the cutoff width and the local disc
    with workprec(128):
        assert 0 < sn.EPS_DEFAULT < min(1 / (2 * mp.e), sn.RHO_DEFAULT / 3)
    assert sn.CutoffChi().eps is sn.EPS_DEFAULT


def test_j_moduli_finite_and_decaying():
    with workprec(PREC):
        vals = [sn.j1_modulus(mpf(y), 8, NU, PREC) for y in (1, 2, 4)]
        assert all(mp.isfinite(v) and v > 0 for v in vals)
        assert vals[0] > vals[1] > vals[2]
        vals = [sn.j2_modulus(mpf(y), 8, NU, PREC) for y in (1, 2, 4)]
        assert vals[0] > vals[1] > vals[2]


def test_j1_elementary_case_nu_half():
    # at nu=1/2 everything reduces to cosines
    with workprec(256):
        n, y = 16, mpf("0.15")
        s = n * mp.pi * y
        from oscq.equilibrium import re_phi_imag_axis
        ref = (4 * mp.exp(-2 * n * re_phi_imag_axis(y, 256))
               / (mp.sqrt(2 * n) * mp.pi)) * abs(mp.cos(s)) \
            * mp.sqrt(mp.pi * s / 2)
        got = sn.j1_modulus(y, n, "0.5", 256)
        assert abs(got - ref) <= mpf(2) ** -120 * ref


def test_j_direct_assembly_cross_check():
    # the defining jump-entry structure against the closed-form moduli
    for y in ("0.05", "0.2"):
        with workprec(192):
            m1 = sn.j1_modulus(mpf(y), 16, NU, 192)
            d1 = abs(sn.j1_direct(mpf(y), 16, NU, 192))
            assert abs(m1 - d1) <= mpf(2) ** -44 * m1
            m2 = sn.j2_modulus(mpf(y), 16, NU, 192)
            d2 = abs(sn.j2_direct(mpf(y), 16, NU, 192))
            assert abs(m2 - d2) <= mpf(2) ** -44 * m2


def test_bessel_ratio_shapes():
    with workprec(PREC):
        r = sn.bessel_ratio_bounds_check(mpf("0.37"), NU, PREC)
        assert all(v > 0 for v in r.values())
        # small-argument limit of the first ratio against the Y-dominated
        # expansion: lhs1/rhs1 stays bounded as s -> 0
        rs = [sn.bessel_ratio_bounds_check(mpf(10) ** -e, NU, PREC)
              for e in (2, 3, 4)]
        qs = [r["lhs1"] / r["rhs1"] for r in rs]
        assert max(qs) / min(qs) <= mpf("1.5")


def test_eta_vanishes_outside_support():
    chi = sn.CutoffChi()
    assert sn.eta1_modulus(mpf("0.3"), 16, NU, chi, PREC) == 0
    assert sn.eta2_modulus(mpf("0.3"), 16, NU, chi, PREC) == 0


def test_eta_bound_record_structure():
    r = sn.eta_bound_check(mpf("0.1"), 16, NU, PREC)
    assert set(r) == {"eta1_mod", "bound1", "eta2_mod", "bound2"}
    with workprec(PREC):
        assert r["eta1_mod"] > 0 and r["eta2_mod"] > 0
        # constants-1 shapes hold within a modest factor at this n
        assert r["eta1_mod"] <= 3 * r["bound1"]
        assert r["eta2_mod"] <= 3 * r["bound2"]


def test_k_norm_bounds_structure():
    r = get_k_norms(16, NU, PREC)
    assert set(r) == {"k1_bound", "k2_bound", "product"}
    with workprec(PREC):
        assert r["k1_bound"] > 0 and r["k2_bound"] > 0
        assert abs(r["product"] - r["k1_bound"] * r["k2_bound"]) \
            <= mpf(2) ** -100
    # the k1 and k2 integrals share their nodes, and each node with
    # chi(y) != 0 costs one D1 grid read for both kernels
    reads, live = get_k_norm_reads(16, NU, PREC)
    assert live and reads == live


def test_one_d1_grid_per_n_nu_prec():
    # a non-dyadic nu rounded at prec before it reaches d1n would key the
    # grid cache apart from d1n's own conversion and build a second grid
    with counting_grid_builds() as build:
        sn.k_norm_bounds(5, "0.3", PREC)
        sn.eta_bound_check(mpf("0.1"), 5, "0.3", PREC)
        px.d1n(mpc(0, "0.1"), 5, "0.3", PREC)
    assert build.call_count == 1


def test_smallnorm_op_builds_one_grid_per_degree():
    # as a smallnorm benchmark op and its check read them: k_norm_bounds
    # at n = 16 and 32 for one fresh nu, then the kernel moduli at both
    # degrees; the grids of that (nu, prec) are held until the last read
    nu, chi = "0.3125", sn.CutoffChi()
    px._grids.cache_clear()
    with counting_grid_builds() as build:
        for n in (16, 32):
            sn.k_norm_bounds(n, nu, PREC)
        for n in (16, 32):
            sn.eta1_modulus("0.01", n, nu, chi, PREC)
            sn.eta2_modulus("0.01", n, nu, chi, PREC)
    assert [c.args[0] for c in build.call_args_list] == [16, 32]


def test_k_norm_kernel_gives_the_modulus_functions_bitwise():
    # the one kernel k_norm_bounds builds per call (its J/Y map and grid
    # taken once) gives, at every node it evaluates, the moduli of
    # eta1_modulus and eta2_modulus, which build a kernel per call
    seen = {}

    class Recording(sn._Kernel):
        def eta_moduli(self, y, chi):
            seen[y] = v = super().eta_moduli(y, chi)
            return v

    with mock.patch.object(sn, "_Kernel", Recording):
        sn.k_norm_bounds(16, NU, PREC)
    chi = sn.CutoffChi()
    assert any(e1 != 0 for e1, _ in seen.values())
    for y, (e1, e2) in seen.items():
        assert (e1._mpf_, e2._mpf_) == (
            sn.eta1_modulus(y, 16, NU, chi, PREC)._mpf_,
            sn.eta2_modulus(y, 16, NU, chi, PREC)._mpf_), y


def test_k_norm_bounds_takes_prec_third():
    # the positional call the README quotes is the keyword call
    pos = sn.k_norm_bounds(16, "0.25", 128)
    kw = get_k_norms(16, "0.25", 128)
    assert {k: v._mpf_ for k, v in pos.items()} == \
        {k: v._mpf_ for k, v in kw.items()}


def test_k_norm_bounds_regression_pin():
    # AC-8's n=16 values as the mpc grid read gave them; the fixed-point
    # read must reproduce them far below the integrals' 2^-(prec/8) target
    r = get_k_norms(16, NU, PREC)
    pinned = {"k1_bound": "0.358369834866596023903346610115",
              "k2_bound": "3.442594068408977612238947079",
              "product": "1.233721867808448282604253451"}
    with workprec(PREC):
        for key, ref in pinned.items():
            ref = mpf(ref)
            assert abs(r[key] - ref) <= mpf(2) ** -64 * ref, key


def _suite_smallnorm(monkeypatch, n_list=None):
    # the suite's k_norm_bounds runs are AC-8's; read them from the cache
    def cached(n, nu, prec):
        return get_k_norms(n, nu, prec)

    monkeypatch.setattr(sn, "k_norm_bounds", cached)
    return verify.suite_smallnorm(prec=128, n_list=n_list)


def test_suite_smallnorm_all_pass(monkeypatch):
    # every grid read of the suite is at (1/4, 128 bits): one grid per
    # degree, n = 16 and 32
    px._grids.cache_clear()
    with counting_grid_builds() as build:
        records = _suite_smallnorm(monkeypatch)
    assert sorted(c.args[0] for c in build.call_args_list) == [16, 32]
    failures = [r for r in records if not r.passed]
    assert not failures, failures


def test_suite_smallnorm_reads_its_degrees_as_a_set(monkeypatch):
    # each trend is fitted at the smallest degree and tested at the others,
    # whatever the order of the list
    def fields(records):
        return [(r.name, r.measured, r.threshold, r.passed) for r in records]

    assert fields(_suite_smallnorm(monkeypatch, [32, 16])) \
        == fields(_suite_smallnorm(monkeypatch, [16, 32]))


@pytest.mark.parametrize("n_list", [[16], [16, 16]])
def test_suite_smallnorm_refuses_one_degree(monkeypatch, n_list):
    with pytest.raises(ValueError, match="two or more distinct degrees"):
        _suite_smallnorm(monkeypatch, n_list)


@pytest.mark.parametrize("ratios", [{32: [4.0], 16: [1.0]},
                                    {16: [1.0], 32: [4.0]}])
def test_fit_then_test_fits_at_the_smallest_degree(ratios):
    c, q = verify._fit_then_test(ratios)
    assert (c, q) == (1.0, 4.0 / 3)
    assert not q <= 1


def _log_uniform_y(lo, u):
    """y = lo (2 eps / lo)^u: log-uniform in [lo, 2 eps) for u in [0, 1)."""
    return lo * (2 * sn.EPS_DEFAULT / lo) ** mpf(u)


@given(prec=st.sampled_from((96, 128, 192)),
       nu=st.integers(0, 999999).map(lambda k: f"{k / 1e6:.6f}"),
       n=st.integers(2, 64), u=st.floats(0, 1, exclude_max=True))
def test_eta_moduli_match_the_composition_by_parts(prec, nu, n, u):
    # the one real pass against |j| chi |d1n d2|^2 at +-iy through the
    # general mpc routes, on the same grid
    chi = sn.CutoffChi()
    with workprec(prec):
        y = _log_uniform_y(mpf(2) ** -(prec // 8), u)
    got = (sn.eta1_modulus(y, n, nu, chi, prec),
           sn.eta2_modulus(y, n, nu, chi, prec))
    ref = verify.eta_moduli_by_parts(y, n, nu, chi, prec)
    with workprec(prec):
        for g, r in zip(got, ref):
            assert abs(g - r) <= mpf(2) ** -(prec - 4) * r, (y, g, r)


@given(n=st.sampled_from((16, 32, 64, 128)),
       u=st.floats(0, 1, exclude_max=True))
def test_eta_moduli_elementary_case_nu_half(n, u):
    # nu = 1/2: W_n = |t|^(-1/2), so |D1(iy)|^2 = ((y+r)/y)^(1/2), and
    # J_(+-1/2), Y_(1/2) are sines and cosines; r = sqrt(1+y^2).  The
    # kernel fetches the grids of nu = 1/2 itself
    chi, prec = sn.CutoffChi(), PREC
    with workprec(prec):
        y = _log_uniform_y(mpf(2) ** -8, u)
    got = sn._Kernel(n, "0.5", prec).eta_moduli(y, chi)
    with workprec(2 * prec):
        r = mp.sqrt(1 + y * y)
        s = n * mp.pi * y
        re_phi = y * mp.log((1 + r) / y) + mp.asinh(y)
        amp = (4 * chi(y, prec) / (mp.sqrt(2 * n) * mp.pi)
               * mp.sqrt(mp.pi * s / 2) * mp.exp(-2 * n * re_phi))
        env = (amp * mp.sqrt((y + r) / (1 + r)),
               amp * mp.sqrt((y + r) * (1 + r)) / y)
        # J_-+nu are held relative to (J^2 + Y^2)^(1/2), so the bound is
        # relative to the envelope, which also holds at zeros of cos, sin
        for g, e, m in zip(got, (abs(mp.cos(s)) * env[0],
                                 abs(mp.sin(s)) * env[1]), env):
            assert abs(g - e) <= mpf(2) ** -(prec - 4) * m, (y, g, e)
