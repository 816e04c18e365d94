"""Named invariant suites behind the CLI verify command.

Each suite runs a battery of identity, oracle, and trend checks for one
layer of the package and returns structured records (measured value vs
threshold).  Thresholds follow the operation contracts; trend checks fit
their unknown constant on the smallest case of a run and assert it, with
the declared slack, on the larger ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from mpmath import mp, mpc, mpf

from . import equilibrium as eq
from . import parametrix as px
from . import smallnorm as sn
from .branches import f_exterior
from .moments import MonicPolynomial, Variable, monic_op, rescale_to_tilde
from .mpfun import workprec
from .quadrature import quad_ts
from .quadrule import apply_rule, gauss_rule
from .zeros import ZeroSet, ecdf_vs_psi, find_zeros, zero_line_stats

@dataclass
class CheckRecord:
    name: str
    measured: str
    threshold: str
    passed: bool

    def as_dict(self):
        return {"name": self.name, "measured": self.measured,
                "threshold": self.threshold, "passed": bool(self.passed)}


def _rec(name, measured, threshold, passed) -> CheckRecord:
    return CheckRecord(name=name, measured=mp.nstr(mpf(measured), 8),
                       threshold=str(threshold), passed=bool(passed))


def _le(name, measured, bound) -> CheckRecord:
    return _rec(name, measured, f"<= {mp.nstr(mpf(bound), 8)}",
                mpf(measured) <= mpf(bound))


def g_by_quadrature(z, prec: int):
    """Oracle for eq.g_fn: integral(log(z-x) psi(x) dx) by tanh-sinh to
    2^-(prec/4), split at 0 and at the near-singular point Re z."""
    with workprec(prec):
        z = mpc(z)
        near = min(max(z.real, mpf(-1)), mpf(1))
        v, _ = quad_ts(lambda x: mp.log(z - x) * eq.psi_real(x, prec + 64),
                       sorted({mpf(-1), mpf(0), mpf(1), near}), prec)
    return v


def theta_by_quadrature(z, n: int, prec: int):
    """Oracle for eq.theta_n: n pi (psi integrated along the segment from
    z to 1) + arccos(z)/4 - pi/4, by tanh-sinh to 2^-(prec/4)."""
    with workprec(prec):
        z = mpc(z)
        w = 1 - z
        v, _ = quad_ts(lambda t: eq.psi_complex(z + t * w, prec + 64),
                       [0, 1], prec)
        return n * mp.pi * v * w + mp.acos(z) / 4 - mp.pi / 4


def decay_integral(alpha, n: int, prec: int):
    """integral_0^(1/e) y^alpha exp(-4 n y log(1/y)) dy (trend checks)."""
    with workprec(prec):
        a = mpf(alpha)
        v, _ = quad_ts(lambda y: y ** a * mp.exp(4 * n * y * mp.log(y)),
                       [0, mp.exp(-1)], prec)
    return v


def suite_equilibrium(prec: int = 256, **_) -> list[CheckRecord]:
    out = []
    with workprec(prec):
        tol = mpf(2) ** (-(prec // 4)) * 64
        mass, _err = quad_ts(lambda x: eq.psi_real(x, prec + 64),
                             [-1, 0, 1], prec)
        out.append(_le("psi mass = 1", abs(mass - 1), tol))
        out.append(_le("cdf(0) = 1/2", abs(eq.psi_cdf(0, prec) - mpf(1) / 2),
                       mpf(2) ** (-prec + 8)))
        cdf_q, _err = quad_ts(lambda x: eq.psi_real(x, prec + 64),
                              [-1, 0, mpf("0.37")], prec)
        out.append(_le("cdf closed form vs quadrature at 0.37",
                       abs(cdf_q - eq.psi_cdf("0.37", prec)), tol))
        ell = eq.ell_const(prec)
        for x in ("-0.7", "-0.3", "0.2", "0.5", "0.7"):
            gp = eq.g_boundary(x, 1, prec)
            gm = eq.g_boundary(x, -1, prec)
            val = gp + gm - mp.pi * abs(mpf(x))
            out.append(_le(f"variational equality at {x}",
                           abs(val - ell), tol))
        for x in ("1.5", "-2", "3"):
            g2 = eq.g_boundary(x, 1, prec)
            lhs = 2 * mpc(g2).real - mp.pi * abs(mpf(x)) - ell
            out.append(_rec(f"variational strict inequality at {x}", lhs,
                            "< 0", lhs < 0))
        for x in ("-1.5", "-2", "-5"):
            jump = eq.g_boundary(x, 1, prec) - eq.g_boundary(x, -1, prec)
            out.append(_le(f"g jump 2 pi i at {x}",
                           abs(jump - 2 * mpc(0, 1) * mp.pi), tol))
        for x in ("-0.5", "0.4"):
            jump = eq.g_boundary(x, 1, prec) - eq.g_boundary(x, -1, prec)
            ref = 2 * mpc(0, 1) * mp.pi * (1 - eq.psi_cdf(x, prec))
            out.append(_le(f"g jump on the support at {x}",
                           abs(jump - ref), tol))
        worst = mpf(-1)
        for i in range(100):
            s = mpf(10) ** (mpf(-6) + mpf("5.4") * i / 99)  # up to ~0.4
            gap = eq.re_phi_imag_axis(s, prec) + s * mp.log(s)
            worst = max(worst, -gap)
        out.append(_rec("re phi >= s log(1/s) on the axis", worst,
                        "<= 0", worst <= 0))
        s = mpf("0.3")
        out.append(_le("re phi closed form vs quadrature at s=0.3",
                       abs(eq.re_phi_imag_axis(s, prec)
                           - (g_by_quadrature(mpc(0, s), prec).real
                              - ell / 2)), tol))
        # closed forms against the quadrature oracles: the four quadrants,
        # both halves of the imaginary axis and the real axis beyond 1
        for zs in ("0.5+0.5j", "-0.7+0.3j", "-0.4-0.6j", "0.8-0.2j",
                   "2j", "-1.5j", "1.5", "3"):
            z = mp.mpmathify(zs)
            got = eq.g_fn(z, prec)
            out.append(_le(f"g closed form vs quadrature at {zs}",
                           abs(got - g_by_quadrature(z, prec))
                           / max(1, abs(got)), tol))
        for zs in ("0.5", "0.3+0.05j", "0.45-0.02j", "0.8+0.5j"):
            z = mp.mpmathify(zs)
            got = eq.theta_n(z, 16, prec)
            out.append(_le(f"theta_n closed form vs quadrature at {zs}",
                           abs(got - theta_by_quadrature(z, 16, prec))
                           / max(1, abs(got)), tol))
        x, n = mpf("0.5"), 7
        th = theta_by_quadrature(x, n, prec)
        intpart = th + mp.pi / 4 - mp.acos(x) / 4
        ref = (-mpc(0, 1) * n * eq.phi_boundary(x, 1, prec)).real
        out.append(_le("theta integral matches -i n phi_+ at 0.5",
                       abs(intpart - ref), tol))
        # the normalized constant climbs toward its asymptotic limit
        # (effective log is log(4 n log n)), so the fit takes the
        # project-wide slack factor 3
        for alpha in ("0.5", "1", "2"):
            vals = {m: decay_integral(alpha, m, prec)
                    for m in (16, 64, 256)}
            a = mpf(alpha)
            c16 = vals[16] * (16 * mp.log(16)) ** (a + 1)
            ok = all(vals[m] * (m * mp.log(m)) ** (a + 1) <= 3 * c16
                     for m in (64, 256))
            out.append(_rec(f"decay integral law alpha={alpha}",
                            c16, "fit at n=16, slack 3", ok))
    return out


def suite_parametrix(prec: int = 192, nu="0.25", **_) -> list[CheckRecord]:
    out = []
    rng = random.Random(20240817)
    with workprec(prec):
        nu = mpf(nu)
        tol = mpf(2) ** (-prec + 24)
        worst = mpf(0)
        for _i in range(100):
            z = mpc(4 * rng.random() - 2, 4 * rng.random() - 2)
            if px.dist_to_interval(z, prec) < mpf("0.05"):
                continue
            m = px.n0_matrix(z, prec)
            worst = max(worst, abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1))
        out.append(_le("matrix model det = 1 (100 random points)",
                       worst, tol * 4))
        m = px.n0_matrix(mpf(10) ** 6, prec)
        dev = max(abs(m[0, 0] - 1), abs(m[1, 1] - 1), abs(m[0, 1]),
                  abs(m[1, 0]))
        out.append(_le("matrix model -> identity at 1e6", dev, mpf(10) ** -5))
        h = mpf(2) ** (-prec // 3)
        x = mpf("0.3")
        np_ = px.n0_matrix(x + h * mpc(0, 1), prec)
        nm = px.n0_matrix(x - h * mpc(0, 1), prec)
        jump = nm * mp.matrix([[0, 1], [-1, 0]])
        dev = max(abs(np_[i, j] - jump[i, j]) for i in range(2)
                  for j in range(2))
        out.append(_le("matrix model jump on (-1,1)", dev,
                       mpf(2) ** (-prec // 3 + 24)))
        out.append(_le("szego_power alpha=0 is 1",
                       abs(px.szego_power(mpc(2, 1), 0, prec) - 1), tol))
        out.append(_le("szego_power limit (1/2)^(alpha/2) at infinity",
                       abs(px.szego_power(mpf(10) ** 8, mpf("-0.5"), prec)
                           - mpf(2) ** mpf("0.25")), mpf(10) ** -7))
        ref = (2 / (2 + mp.sqrt(3))) ** (-mpf(1) / 4)
        out.append(_le("szego_power value at z=2, alpha=-1/2",
                       abs(px.szego_power(2, mpf("-0.5"), prec) - ref), tol))
        out.append(_le("d2 -> 1 at infinity",
                       abs(px.d2(mpf(10) ** 8, nu, prec) - 1), mpf(10) ** -7))
        for sgn in (1, -1):
            zedge = sgn * (1 + mpf(10) ** -20)
            ref = mp.exp(-sgn * nu * mp.pi * mpc(0, 1) / 4)
            out.append(_le(f"d2 edge limit at {sgn}",
                           abs(px.d2(zedge, nu, prec) - ref), mpf(10) ** -8))
        for x in ("1.5", "-1.5", "3", "-3"):
            out.append(_le(f"|d2| = 1 on the real axis at {x}",
                           abs(abs(px.d2(mpf(x), nu, prec)) - 1), tol))
        h = mpf(2) ** (-prec // 2)
        x = mpf("0.5")
        prod = px.d2(x + h * mpc(0, 1), nu, prec) \
            * px.d2(x - h * mpc(0, 1), nu, prec)
        out.append(_le("d2 boundary product on (0,1)",
                       abs(prod - mp.exp(-nu * mp.pi * mpc(0, 1) / 2)),
                       mpf(2) ** (-prec // 2 + 24)))
        for zz in (mpc("0.5", "0.2"), mpc("0.5", "-0.2"), mpc("-0.5", "0.2")):
            out.append(_le(f"d2/psi quadrant identity at {zz}",
                           px.d2_psi_consistency(zz, nu, prec),
                           mpf(2) ** (-prec // 2)))
        defp = px.d2_psi_consistency(mpc("0.5", "0.2"), nu, prec)
        defm = px.d2_psi_consistency(mpc("0.5", "-0.2"), nu, prec)
        out.append(_le("d2/psi reflection symmetry", abs(defp - defm),
                       mpf(2) ** (-prec // 2)))
        # closed-form oracle: at nu=1/2 the weight is exactly |x|^(-1/2)
        for zz in (mpc(0, "0.1"), mpc(2), mpc("0.4", "0.8")):
            ref = (f_exterior(zz) / zz) ** (mpf(1) / 4)
            got = px.d1n(zz, 20, "0.5", prec)
            out.append(_le(f"d1n nu=1/2 closed form at {zz}",
                           abs(got - ref) / abs(ref),
                           mpf(2) ** (-(prec // 4))))
        got = px.d1n(mpc(0, "0.1"), 20, "0.5", prec, adaptive=True)
        ref = (f_exterior(mpc(0, "0.1")) / mpc(0, "0.1")) ** (mpf(1) / 4)
        out.append(_le("d1n adaptive route same oracle",
                       abs(got - ref) / abs(ref), mpf(2) ** (-(prec // 4))))
        out.append(_le("d_infty nu=1/2 equals 2^(1/4)",
                       abs(px.d_infty_n(20, "0.5", prec)
                           - mpf(2) ** mpf("0.25")), mpf(2) ** (-(prec // 4))))
        # boundary product D1+ D1- = W_n by shrinking-offset extrapolation;
        # the log-weight values are shared across the four evaluations per
        # point (the quadrature revisits the same nodes)
        n_b = 20
        pq = 128
        worst = mpf(0)
        from .branches import sqrt_offcut
        from .parametrix import _k_log_weight
        for k in range(10):
            x = mpf("0.08") + mpf("0.84") * k / 9
            kcache = {}

            def kfun(t):
                v = kcache.get(t)
                if v is None:
                    v = _k_log_weight(t, n_b, nu, pq + 32)
                    kcache[t] = v
                return v

            vals = []
            for h_ in (mpf(10) ** -5, mpf(10) ** -5 / 2):
                prod = mpf(1)
                for sgn in (1, -1):
                    z = x + sgn * h_ * mpc(0, 1)
                    integral, _ = quad_ts(
                        lambda t: kfun(t) * (1 / (z - t) + 1 / (z + t)),
                        [mpf(0), 1 / (n_b * mp.pi), x, mpf(1)], pq)
                    prod *= mp.exp(sqrt_offcut(z) / (2 * mp.pi) * integral)
                vals.append(prod)
            extrap = 2 * vals[1] - vals[0]
            wref = px.w_weight(x, n_b, nu, prec)
            worst = max(worst, abs(extrap - wref) / abs(wref))
        out.append(_le("d1 boundary product equals weight (10 points)",
                       worst, mpf(10) ** -7))
        z = mpc("0.7", "0.9")
        out.append(_le("d1 evenness", abs(px.d1n(-z, 12, nu, prec)
                                          - px.d1n(z, 12, nu, prec)), tol))
        out.append(_le("d1 Schwarz reflection",
                       abs(px.d1n(mp.conj(z), 12, nu, prec)
                           - mp.conj(px.d1n(z, 12, nu, prec))), tol))
        # large-n limit of d1n with rate log n / n, fitted constant <= 5
        zz = mpc(0, 2)
        ref = (f_exterior(zz) / zz) ** (mpf(1) / 4)
        cfit = mpf(0)
        for m in (25, 50, 100, 200):
            dev = abs(px.d1n(zz, m, nu, prec) - ref)
            cfit = max(cfit, dev * m / mp.log(m))
        out.append(_le("d1n limit rate constant (n<=200)", cfit, 5))
        prev = None
        ok = True
        for m in (25, 50, 100, 200):
            diff = abs(px.d_infty_n(m, nu, prec) - mpf(2) ** mpf("0.25"))
            if prev is not None and diff >= prev:
                ok = False
            prev = diff
        out.append(_rec("d_infty trend to 2^(1/4)", prev, "decreasing", ok))
        # weight facts
        wv = px.w_weight(mpf("0.3"), 10, "0.5", prec)
        out.append(_le("weight nu=1/2 closed form",
                       abs(wv - mpf("0.3") ** mpf("-0.5")), tol))
        wv = px.w_weight(mpf("0.5"), 100, nu, prec)
        out.append(_le("weight large-n normalization",
                       abs(wv * mp.sqrt(mpf("0.5")) - 1),
                       2 / (100 * mpf("0.5"))))
        out.append(_le("weight evenness",
                       abs(px.w_weight(mpf("-0.4"), 12, nu, prec)
                           - px.w_weight(mpf("0.4"), 12, nu, prec)), tol))
    return out


def suite_smallnorm(prec: int = 128, nu="0.25", n_list=None,
                    **_) -> list[CheckRecord]:
    out = []
    n_list = n_list or [16, 32]
    chi = sn.CutoffChi()
    with workprec(prec):
        nu = mpf(nu)
        bad = 0
        for i in range(1000):
            y = mpf("0.4") * (i + 1) / 1000
            c = chi(y, prec)
            if y <= chi.eps and c != 1:
                bad += 1
            elif y >= 2 * chi.eps and c != 0:
                bad += 1
            elif not 0 <= c <= 1:
                bad += 1
        out.append(_rec("cutoff partition properties (1000 points)", bad,
                        "= 0", bad == 0))
        vals = [sn.j1_modulus(mpf(y), 8, nu, prec) for y in (1, 2, 4)]
        out.append(_rec("j1 decays in y", vals[2],
                        "decreasing over y=1,2,4",
                        vals[0] > vals[1] > vals[2]))
        # nu=1/2: all Bessel factors are elementary
        n_e, y_e = 16, mpf("0.15")
        s = n_e * mp.pi * y_e
        elem = (4 * mp.exp(-2 * n_e * eq.re_phi_imag_axis(y_e, prec))
                / (mp.sqrt(2 * n_e) * mp.pi)) * abs(mp.cos(s)) \
            * mp.sqrt(mp.pi * s / 2)
        out.append(_le("j1 elementary case nu=1/2",
                       abs(sn.j1_modulus(y_e, n_e, "0.5", prec) - elem)
                       / elem, mpf(2) ** (-prec // 2)))
        for y in ("0.05", "0.15"):
            m1 = sn.j1_modulus(mpf(y), 16, nu, prec)
            d1_ = abs(sn.j1_direct(mpf(y), 16, nu, prec))
            out.append(_le(f"j1 closed form vs direct assembly, y={y}",
                           abs(m1 - d1_) / m1, mpf(2) ** (-(prec // 4))))
            m2 = sn.j2_modulus(mpf(y), 16, nu, prec)
            d2_ = abs(sn.j2_direct(mpf(y), 16, nu, prec))
            out.append(_le(f"j2 closed form vs direct assembly, y={y}",
                           abs(m2 - d2_) / m2, mpf(2) ** (-(prec // 4))))
        m1 = sn.j1_modulus(mpf("0.1"), 8, 0, prec)
        m2 = sn.j2_modulus(mpf("0.1"), 8, 0, prec)
        out.append(_le("j1 = j2 at nu = 0", abs(m1 - m2) / m1,
                       mpf(2) ** (-prec + 24)))
        # ratio sweeps: finite, interior max, asymptotic plateau
        ratios1, ratios2 = [], []
        npts = 1000
        for i in range(npts):
            s = mpf(10) ** (-4 + 8 * mpf(i) / (npts - 1))
            r = sn.bessel_ratio_bounds_check(s, nu, prec)
            ratios1.append(r["lhs1"] / r["rhs1"])
            ratios2.append(r["lhs2"] / r["rhs2"])
        i1 = ratios1.index(max(ratios1))
        i2 = ratios2.index(max(ratios2))
        out.append(_rec("ratio sweep 1 max interior", max(ratios1),
                        "attained away from grid ends",
                        0 < i1 < npts - 1))
        out.append(_rec("ratio sweep 2 max interior", max(ratios2),
                        "attained away from grid ends",
                        0 < i2 < npts - 1))
        r3 = sn.bessel_ratio_bounds_check(mpf(10) ** 3, nu, prec)
        r2_ = sn.bessel_ratio_bounds_check(mpf(10) ** 2, nu, prec)
        q = (r3["lhs1"] / r3["rhs1"]) / (r2_["lhs1"] / r2_["rhs1"])
        out.append(_rec("ratio plateau s=1e2 vs 1e3", q, "within factor 3",
                        mpf(1) / 3 <= q <= 3))
        # eta bounds: fit constants on the smallest n, assert with slack 3
        ys = [mpf("0.02") * (k + 1) for k in range(10)]
        n0 = min(n_list)
        c1 = c2 = mpf(0)
        for y in ys:
            r = sn.eta_bound_check(y, n0, nu, chi, prec)
            c1 = max(c1, r["eta1_mod"] / r["bound1"])
            c2 = max(c2, r["eta2_mod"] / r["bound2"])
        ok = True
        worst = mpf(0)
        for m in n_list[1:]:
            for y in ys:
                r = sn.eta_bound_check(y, m, nu, chi, prec)
                q1 = r["eta1_mod"] / r["bound1"] / (3 * c1)
                q2 = r["eta2_mod"] / r["bound2"] / (3 * c2)
                worst = max(worst, q1, q2)
                ok = ok and q1 <= 1 and q2 <= 1
        out.append(_rec("eta bounds fit-then-test (slack 3)", worst,
                        "<= 1", ok))
        # first-Szego on-axis size bound, same protocol
        cfit = mpf(0)
        for y in ys:
            d1v = abs(px.d1n(mpc(0, y), n0, nu, prec)) ** 2
            shape = n0 ** (mpf(1) / 2 - nu) * y ** (-nu) \
                / (1 + (n0 * y) ** (mpf(1) / 2 - nu))
            cfit = max(cfit, d1v / shape)
        ok = True
        for m in n_list[1:]:
            for y in ys:
                d1v = abs(px.d1n(mpc(0, y), m, nu, prec)) ** 2
                shape = m ** (mpf(1) / 2 - nu) * y ** (-nu) \
                    / (1 + (m * y) ** (mpf(1) / 2 - nu))
                ok = ok and d1v <= 3 * cfit * shape
        out.append(_rec("first-Szego axis bound fit-then-test", cfit,
                        "slack 3 over n", ok))
        # operator-norm decay trend over the run's n list
        res = {m: sn.k_norm_bounds(m, nu, chi, prec) for m in n_list}
        b1 = {m: res[m]["k1_bound"] * m ** nu * mp.log(m) ** nu
              for m in n_list}
        b2 = {m: res[m]["k2_bound"] * m ** (-nu) * mp.log(m) ** nu
              for m in n_list}
        ok = all(b1[m] <= 3 * b1[n0] and b2[m] <= 3 * b2[n0]
                 for m in n_list[1:])
        out.append(_rec("normalized operator norms bounded (slack 3)",
                        max(max(b1.values()), max(b2.values())),
                        f"fit at n={n0}", ok))
        nmax = max(n_list)
        out.append(_rec("operator norm product decays",
                        res[nmax]["product"],
                        f"< product at n={n0}",
                        res[nmax]["product"] < res[n0]["product"]))
    return out


def suite_quadrature(prec: int = 256, nu=None, n_list=None,
                     **_) -> list[CheckRecord]:
    out = []
    n_list = n_list or list(range(1, 7))
    nus = [nu] if nu is not None else ["0", "0.25", "0.5"]
    with workprec(prec):
        thresh = mpf(10) ** (-mpf("0.15") * prec)
        for nu_s in nus:
            worst = mpf(0)
            sym_worst = mpf(0)
            sum_worst = mpf(0)
            for n in n_list:
                rule = gauss_rule(n, nu_s, prec)
                worst = max(worst, rule.exactness_report)
                sum_worst = max(sum_worst,
                                abs(mp.fsum(rule.weights) - 1))
                for x, w in zip(rule.nodes, rule.weights):
                    best = min(abs(mp.conj(x) - x2) for x2 in rule.nodes)
                    match = [w2 for x2, w2 in zip(rule.nodes, rule.weights)
                             if abs(mp.conj(x) - x2) == best][0]
                    sym_worst = max(sym_worst,
                                    abs(mp.conj(w) - match) / max(1, abs(w)))
                out.append(_le(f"exactness nu={nu_s} n={n}",
                               rule.exactness_report, thresh))
            out.append(_le(f"weights sum to 1 (nu={nu_s})", sum_worst,
                           mpf(2) ** (-(prec // 2))))
            out.append(_le(f"conjugate-node weight symmetry (nu={nu_s})",
                           sym_worst, mpf(2) ** (-(prec // 2))))
        rule = gauss_rule(2, "0", prec)
        out.append(_le("constant integrates to 1",
                       abs(apply_rule(rule, lambda x: mpf(1)) - 1),
                       mpf(2) ** (-(prec // 2))))
        out.append(_le("x^2 integrates to -1 at nu=0",
                       abs(apply_rule(rule, lambda x: x * x) + 1),
                       mpf(2) ** (-(prec // 2))))
        from .moments import moment
        beyond = abs(apply_rule(rule, lambda x: x ** 4)
                     - moment(4, "0", prec))
        out.append(_rec("degree 2n defect nonzero (exactness boundary)",
                        beyond, "> 1e-5", beyond > mpf(10) ** -5))
    return out


def suite_zeros(prec: int = 256, nu="0", n_list=None, **_) -> list[CheckRecord]:
    out = []
    n_list = n_list or [2, 4, 8]
    rng = random.Random(73)
    with workprec(prec):
        for n in n_list:
            poly = monic_op(n, nu, prec)
            tilde = rescale_to_tilde(poly, n)
            zs = find_zeros(tilde)
            tol = mpf(2) ** (-(zs.prec // 2) + 16)
            # c_{n-1} = -sum a_k and c_0 = P(0)
            vieta = abs(mp.fsum(zs.roots)
                        - mp.fsum(a for a, _ in tilde.recurrence))
            out.append(_le(f"Vieta sum n={n}", vieta, tol * n))
            prod = mpf(1)
            for r in zs.roots:
                prod = prod * r
            vieta_p = abs(prod - (-1) ** n * tilde.eval(0))
            out.append(_le(f"Vieta product n={n}", vieta_p, tol * n))
            sym = mpf(0)
            for r in zs.roots:
                best = min(abs(-mp.conj(r) - r2) for r2 in zs.roots)
                sym = max(sym, best)
            out.append(_le(f"root reflection closure n={n}", sym, tol * n))
            if mpf(nu) == 0:
                worst = max(abs(n * mp.pi * r.imag) for r in zs.roots)
                out.append(_le(f"imaginary-axis law n={n}", worst,
                               mpf(10) ** (-mpf("0.1") * prec)))
            zs2 = find_zeros(tilde)
            out.append(_rec(f"determinism n={n}", 0, "bitwise equal",
                            zs.roots == zs2.roots))
        # constructive round trip on a random degree-8 recurrence: its
        # roots are the eigenvalues of the Jacobi matrix [b_k, a_k, 1]
        def draw():
            return mpc(2 * rng.random() - 1, 2 * rng.random() - 1)

        rec = tuple((draw(), draw()) for _ in range(8))
        jac = mp.matrix(8)
        for k, (a, b) in enumerate(rec):
            jac[k, k] = a
            if k:
                jac[k, k - 1], jac[k - 1, k] = b, 1
        roots = mp.eig(jac, left=False, right=False)
        zs = find_zeros(MonicPolynomial(recurrence=rec,
                                        variable=Variable.RAW_X, prec=prec))
        worst = mpf(0)
        for r in roots:
            worst = max(worst, min(abs(r - got) for got in zs.roots))
        out.append(_le("constructive round-trip degree 8", worst,
                       mpf(2) ** (-(prec // 2) + 24)))
        # synthetic statistics
        n = 12
        nu_s = mpf("0.25")
        line = [mpc(x, -nu_s / (2 * n))
                for x in [mpf("-0.9") + mpf("1.8") * k / (n - 1)
                          for k in range(n)]]
        zsyn = ZeroSet(roots=tuple(line), residuals=(mpf(0),) * n,
                       variable=Variable.RESCALED_Z, prec=prec)
        st = zero_line_stats(zsyn, n, nu_s, mpf("0.2"))
        out.append(_le("synthetic line maps to exact deviation 0",
                       st.max_dev, mpf(2) ** (-prec + 24)))
        quant = [eq.psi_quantile((mpf(k) + mpf(1) / 2) / n, prec)
                 for k in range(n)]
        zq = ZeroSet(roots=tuple(mpc(q, 0) for q in quant),
                     residuals=(mpf(0),) * n,
                     variable=Variable.RESCALED_Z, prec=prec)
        d = ecdf_vs_psi(zq)
        out.append(_le("quantile construction ecdf distance",
                       d, mpf(1) / (2 * n) + mpf(10) ** -10))
        z1 = ZeroSet(roots=(mpc(0, 0),), residuals=(mpf(0),),
                     variable=Variable.RESCALED_Z, prec=prec)
        out.append(_le("single root at 0 gives distance 1/2",
                       abs(ecdf_vs_psi(z1) - mpf(1) / 2),
                       mpf(2) ** (-prec + 24)))
    return out


SUITES = {"equilibrium": suite_equilibrium, "parametrix": suite_parametrix,
          "smallnorm": suite_smallnorm, "quadrature": suite_quadrature,
          "zeros": suite_zeros}


def run_suite(name: str, **kwargs) -> list[CheckRecord]:
    fn = SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{tuple(SUITES)}")
    return fn(**{k: v for k, v in kwargs.items() if v is not None})
