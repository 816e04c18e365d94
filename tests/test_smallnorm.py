import pytest
from mpmath import mp, mpf

from oscq import smallnorm as sn
from oscq import verify
from oscq.mpfun import workprec

from conftest import get_k_norm_reads, get_k_norms

NU = "0.25"
PREC = 128


def test_cutoff_partition():
    chi = sn.CutoffChi()
    with workprec(128):
        assert chi(mpf("0.05")) == 1
        assert chi(chi.eps) == 1
        assert chi(2 * chi.eps) == 0
        assert chi(mpf("0.3")) == 0
        mid = chi(mpf("0.18"))
        assert 0 < mid < 1
        # even in y
        assert chi(mpf("-0.18")) == mid


def test_cutoff_eps_constraint():
    with pytest.raises(ValueError):
        sn.CutoffChi(eps=mpf("0.2"))   # above min(1/(2e), rho/3)
    with pytest.raises(ValueError):
        sn.CutoffChi(eps=mpf(0))


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
    chi = sn.CutoffChi()
    r = sn.eta_bound_check(mpf("0.1"), 16, NU, chi, PREC)
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


def test_suite_smallnorm_all_pass(monkeypatch):
    # the suite's k_norm_bounds runs are AC-8's; read them from the cache
    def cached(n, nu, chi, prec):
        assert chi == sn.CutoffChi()
        return get_k_norms(n, nu, prec)

    monkeypatch.setattr(sn, "k_norm_bounds", cached)
    records = verify.suite_smallnorm(prec=128)
    failures = [r for r in records if not r.passed]
    assert not failures, failures
