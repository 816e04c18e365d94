"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantities.  Trend criteria fit their unknown
constant on the smallest degree of the run and assert it, with the
declared slack, on the larger degrees.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

from mpmath import mp, mpc, mpf

from oscq import equilibrium as eq
from oscq import parametrix as px
from oscq import smallnorm as sn
from oscq import verify
from oscq.mpfun import workprec
from oscq.quadrature import quad_ts
from oscq.quadrule import gauss_rule
from oscq.zeros import ecdf_vs_psi, zero_line_stats

from conftest import get_k_norms, get_tilde, get_zeros, nstr, report


def test_ac1_imaginary_axis_law_nu0():
    worst = mpf(0)
    details = []
    for n in (2, 4, 8, 16, 32):
        zs = get_zeros(n, 0)
        with workprec(zs.prec):
            dev = max(abs(n * mp.pi * w.imag) for w in zs.roots)
            worst = max(worst, dev)
        details.append(f"n={n}:{nstr(dev, 3)}")
    ok = worst <= mpf(10) ** -20
    assert report("AC-1 imaginary-axis law (nu=0, even n <= 32)", ok,
                  f"max |Re z| = {nstr(worst, 4)} <= 1e-20"), details


def test_ac2_gaussian_exactness():
    worst = mpf(0)
    with workprec(512):
        for nu in ("0", "0.25", "0.5"):
            for n in range(1, 11):
                rule = gauss_rule(n, nu, 512)
                worst = max(worst, rule.exactness_report)
    ok = worst <= mpf(10) ** -30
    assert report("AC-2 Gaussian exactness (n <= 10, prec 512)", ok,
                  f"max relative moment defect = {nstr(worst, 4)} <= 1e-30")


def test_ac3_outer_asymptotics():
    nu = "0.25"
    points = (mpc(0, 2), mpc("1.5", 0), mpc("-1.5", "0.5"))

    def ratios(n):
        tilde = get_tilde(n, nu)
        out = []
        with workprec(320):
            for z in points:
                pred = px.outer_eval(z, n, nu, 256)
                actual = tilde.eval(z, tilde.prec)
                out.append(abs(actual / pred.value - 1))
        return out

    with workprec(320):
        eps8 = eq.epsilon_n(8, nu, 256)
        cfit = max(ratios(8)) / eps8
        ok = True
        worst_q = mpf(0)
        for n in (16, 32, 64):
            bound = 3 * cfit * eq.epsilon_n(n, nu, 256)
            for r in ratios(n):
                worst_q = max(worst_q, r / bound)
                ok = ok and r <= bound
    assert report("AC-3 outer asymptotics trend", ok,
                  f"C fit at n=8: {nstr(cfit, 4)}; worst ratio/bound "
                  f"at n=16..64: {nstr(worst_q, 4)} <= 1")


def test_ac4_zero_line_law():
    ok = True
    details = []
    for nu in ("0.25", "0.5"):
        sts = {n: zero_line_stats(get_zeros(n, nu), n, nu, "0.2")
               for n in (16, 32, 64)}
        with workprec(256):
            cfit = sts[16].max_dev / sts[16].epsilon_n
            for n in (32, 64):
                q = sts[n].max_dev / (3 * cfit * sts[n].epsilon_n)
                ok = ok and q <= 1
            details.append(f"nu={nu}: C16={nstr(cfit, 4)}, "
                           f"dev/eps at 32,64: "
                           f"{nstr(sts[32].max_dev / sts[32].epsilon_n, 4)},"
                           f"{nstr(sts[64].max_dev / sts[64].epsilon_n, 4)}")
    assert report("AC-4 zero-line law (slack 3)", ok, "; ".join(details))


def test_ac5_weak_convergence():
    with workprec(256):
        d32 = ecdf_vs_psi(get_zeros(32, "0.25"))
        d64 = ecdf_vs_psi(get_zeros(64, "0.25"))
        ok = d32 <= mpf("0.25") and d64 < d32
    assert report("AC-5 weak convergence of zero counting measure", ok,
                  f"KS(32) = {nstr(d32, 4)} <= 0.25, "
                  f"KS(64) = {nstr(d64, 4)} < KS(32)")


def test_ac6_equilibrium_identities():
    prec = 384
    with workprec(prec):
        mass, _ = quad_ts(lambda x: eq.psi_real(x, prec + 64),
                          [-1, 0, 1], prec)
        mass_def = abs(mass - 1)
        ell = eq.ell_const(prec)
        var_def = mpf(0)
        for x in ("-0.7", "-0.3", "0.3", "0.7"):
            gp = verify.g_boundary(x, 1, prec)
            gm = verify.g_boundary(x, -1, prec)
            var_def = max(var_def,
                          abs(gp + gm - mp.pi * abs(mpf(x)) - ell))
        jump = verify.g_boundary(-2, 1, prec) - verify.g_boundary(-2, -1, prec)
        jump_def = abs(jump - 2 * mpc(0, 1) * mp.pi)
        ok = (mass_def <= mpf(10) ** -30 and var_def <= mpf(10) ** -25
              and jump_def <= mpf(10) ** -25)
    assert report("AC-6 equilibrium identities", ok,
                  f"|mass-1| = {nstr(mass_def, 3)} <= 1e-30, "
                  f"variational defect = {nstr(var_def, 3)} <= 1e-25, "
                  f"jump defect = {nstr(jump_def, 3)} <= 1e-25")


def test_ac7_szego_limit_trend():
    prec = 128
    with workprec(prec):
        ref = mpf(2) ** mpf("0.25")
        diffs = {n: abs(verify.d_infty_n(n, "0.25", prec) - ref)
                 for n in (25, 50, 100, 200)}
        decreasing = all(diffs[a] > diffs[b]
                         for a, b in ((25, 50), (50, 100), (100, 200)))
        cfit = diffs[25] * 25 / mp.log(25)
        ok = decreasing
        for n in (50, 100, 200):
            ok = ok and diffs[n] <= 3 * cfit * mp.log(n) / n
    assert report("AC-7 Szego limit trend", ok,
                  f"|d_infty - 2^(1/4)| decreasing "
                  f"{[nstr(diffs[n], 3) for n in (25, 50, 100, 200)]}, "
                  f"rate constant {nstr(cfit, 4)} (slack 3)")


def test_ac8_small_norm_decay():
    prec = 128
    ok = True
    details = []
    prods = {}
    for nu_s in ("0.25", "0.5"):
        with workprec(prec):
            nu = mpf(nu_s)
            res = {n: get_k_norms(n, nu_s, prec)
                   for n in (16, 32, 64, 128)}
            prods[nu_s] = res
            b1 = {n: res[n]["k1_bound"] * n ** nu * mp.log(n) ** nu
                  for n in res}
            b2 = {n: res[n]["k2_bound"] * n ** (-nu) * mp.log(n) ** nu
                  for n in res}
            for n in (32, 64, 128):
                ok = ok and b1[n] <= 3 * b1[16] and b2[n] <= 3 * b2[16]
            ok = ok and res[128]["product"] < res[16]["product"]
            details.append(
                f"nu={nu_s}: b1 {nstr(b1[16], 3)}->{nstr(b1[128], 3)}, "
                f"b2 {nstr(b2[16], 3)}->{nstr(b2[128], 3)}, product "
                f"{nstr(res[16]['product'], 3)}->"
                f"{nstr(res[128]['product'], 3)}")
    with workprec(prec):
        # slowest case nu=1/2: the product decays like 1/log n
        q = prods["0.5"][128]["product"] / prods["0.5"][16]["product"]
        lim = mp.log(16) / mp.log(128) * 3
        ok = ok and q <= lim
        details.append(f"nu=0.5 product ratio {nstr(q, 4)} <= {nstr(lim, 4)}")
    assert report("AC-8 small-norm decay", ok, "; ".join(details))


def test_ac9_inner_asymptotics():
    nu = "0.25"
    prec = 320

    def pieces(n):
        tilde = get_tilde(n, nu)
        rows = []
        with workprec(prec):
            for xs in ("0.3", "0.5", "0.7"):
                x = mpf(xs)
                pref, tp, tm = px.inner_terms(x, n, nu, prec)
                actual = tilde.eval(x, tilde.prec)
                diff = abs(actual - pref * (tp + tm))
                band = 3 * mp.log(n) / n * (abs(tp) + abs(tm)) * abs(pref)
                rows.append((diff, band, abs(pref)))
        return rows

    with workprec(prec):
        cfit = mpf(0)
        for diff, band, apref in pieces(16):
            eps = eq.epsilon_n(16, nu, prec)
            cfit = max(cfit, (diff - band) / (apref * eps))
        cfit = max(cfit, mpf(0))
        ok = True
        worst_q = mpf(0)
        for n in (32, 64):
            eps = eq.epsilon_n(n, nu, prec)
            for diff, band, apref in pieces(n):
                bound = band + cfit * apref * eps
                worst_q = max(worst_q, diff / bound)
                ok = ok and diff <= bound
    assert report("AC-9 inner asymptotics", ok,
                  f"C fit at n=16: {nstr(cfit, 4)}; worst defect/bound at "
                  f"n=32,64: {nstr(worst_q, 4)} <= 1")


def test_ac10_bessel_ratio_bounds():
    prec = 96
    ok = True
    details = []

    def sweep(nu, npts):
        m1 = m2 = mpf(0)
        with workprec(prec):
            for i in range(npts):
                s = mpf(10) ** (-4 + 8 * mpf(i) / (npts - 1))
                r = sn.bessel_ratio_bounds_check(s, nu, prec)
                m1 = max(m1, r["lhs1"] / r["rhs1"])
                m2 = max(m2, r["lhs2"] / r["rhs2"])
        return m1, m2

    for nu in ("0.1", "0.25", "0.5"):
        dense = sweep(nu, 1000)
        half = sweep(nu, 500)
        with workprec(prec):
            for d, h in zip(dense, half):
                ok = ok and mp.isfinite(d) and d <= h * mpf("1.01")
        details.append(f"nu={nu}: maxima {nstr(dense[0], 4)}, "
                       f"{nstr(dense[1], 4)}")
    assert report("AC-10 Bessel-ratio bounds", ok, "; ".join(details))
