"""Correctness checks on each op's output, by routes of their own.

They run untimed after a ladder and use mpmath directly: moments come from
gamma ratios, polynomials are rebuilt from the reported roots, the error
scale is recomputed from its formula.  Two take pieces from oscq: the inner
asymptotic band takes its scale from `parametrix.inner_terms`, as AC-9
does, and the operator-norm check assembles the kernel moduli from oscq's
Bessel and D2 factors with D1 by its adaptive route, not the cached grid
that the integrals read.  Each check returns its failure messages; an empty
list is a pass.
"""

from __future__ import annotations

import csv
import json

from mpmath import mp, mpc, mpf, workprec
from oscq import smallnorm as sn
from oscq.parametrix import d1n, d2, inner_terms

ZEROS_HEADER = ["index", "re", "im", "re_w", "im_w", "residual"]
ASYMPTOTICS_HEADER = ["z_re", "z_im", "pred_re", "pred_im", "actual_re",
                      "actual_im", "rel_err", "error_scale"]


def exact_moments(count: int, nu: str):
    """m_0..m_{count-1} from m_j = 2^j G((1+nu+j)/2) / G((1+nu-j)/2), at
    the ambient precision; 1/G vanishes at the poles."""
    nu = mpf(nu)
    return [mpf(1)] + [mpf(2) ** j * mp.gamma((1 + nu + j) / 2)
                       * mp.rgamma((1 + nu - j) / 2)
                       for j in range(1, count)]


def epsilon_n(n: int, nu: str):
    """Master error scale n^(nu-1/2) / (log n)^(nu+1/2)."""
    nu = mpf(nu)
    return mpf(n) ** (nu - mpf(1) / 2) / mp.log(n) ** (nu + mpf(1) / 2)


def read_csv(path: str, header: list[str]):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise ValueError(f"{path}: header {rows[:1]} is not {header}")
    return rows[1:]


def _closure_gap(roots):
    """Largest distance from -conj(w) to the nearest root."""
    return max(min(abs(-mp.conj(w) - v) for v in roots) for w in roots)


def check_zeros(out: str, n: int, nu: str, bits_requested: int):
    """`oscq zeros` CSV and manifest; returns (bits used, failures)."""
    with open(out + ".manifest.json") as fh:
        man = json.load(fh)
    bits = int(man["precision_bits_used"])
    rows = read_csv(out, ZEROS_HEADER)
    bad = []
    if len(rows) != n:
        return bits, [f"{len(rows)} rows, expected {n}"]
    if [int(r[0]) for r in rows] != list(range(n)):
        bad.append("index column is not 0..n-1")
    contract = mpf(2) ** (-(bits_requested // 2))
    with workprec(bits + 64):
        z = [mpc(mpf(r[1]), mpf(r[2])) for r in rows]
        w = [mpc(mpf(r[3]), mpf(r[4])) for r in rows]
        res = [mpf(r[5]) for r in rows]
        frame = max(abs(zk - mpc(0, 1) * n * mp.pi * wk) / abs(zk)
                    for zk, wk in zip(z, w))
        if frame > mpf(2) ** (16 - bits):
            bad.append(f"re/im != i n pi (re_w/im_w): gap {mp.nstr(frame, 3)}")
        if max(res) > contract:
            bad.append(f"residual {mp.nstr(max(res), 3)} above "
                       f"2^-{bits_requested // 2}")
        gap = _closure_gap(w)
        if gap > contract:
            bad.append(f"roots not closed under w -> -conj(w): "
                       f"gap {mp.nstr(gap, 3)}")
        # raw-frame monic polynomial prod (x - z_k), coefficients c_0..c_n
        c = [mpc(1)]
        for zk in z:
            c = [mpc(0)] + c
            for k in range(len(c) - 1):
                c[k] -= zk * c[k + 1]
        m = exact_moments(2 * n, nu)
        worst = mpf(0)
        for j in range(n):
            terms = [c[k] * m[j + k] for k in range(n + 1)]
            scale = mp.fsum(abs(t) for t in terms)
            worst = max(worst, abs(mp.fsum(terms)) / scale)
        if worst > contract:
            bad.append(f"rebuilt polynomial not orthogonal: relative "
                       f"residual {mp.nstr(worst, 3)}")
    return bits, bad


def check_rule(rule, n: int, nu: str, prec: int):
    """A Gauss rule against exact moments: exactness for degrees <= 2n-1
    within 10^(-0.15 prec), unit mass, conjugate-pair symmetry."""
    bad = []
    if len(rule.nodes) != n or len(rule.weights) != n:
        return [f"rule has {len(rule.nodes)} nodes, expected {n}"]
    tol = mpf(2) ** (-(prec // 2))
    with workprec(2 * rule.prec):
        m = exact_moments(2 * n, nu)
        defect = max(abs(mp.fsum(wk * xk ** j for wk, xk in
                                 zip(rule.weights, rule.nodes)) - m[j])
                     for j in range(2 * n))
        defect /= max(abs(v) for v in m)
        if defect > mpf(10) ** (-mpf("0.15") * prec):
            bad.append(f"exactness defect {mp.nstr(defect, 3)} above "
                       f"10^(-0.15*{prec})")
        mass = abs(mp.fsum(rule.weights) - 1)
        if mass > tol:
            bad.append(f"weights sum to 1 +- {mp.nstr(mass, 3)}")
        for xk, wk in zip(rule.nodes, rule.weights):
            mate = min(zip(rule.nodes, rule.weights),
                       key=lambda p: abs(mp.conj(xk) - p[0]))
            if abs(mp.conj(xk) - mate[0]) > tol * max(1, abs(xk)) \
                    or abs(mp.conj(wk) - mate[1]) > tol * max(1, abs(wk)):
                bad.append(f"node {mp.nstr(xk, 8)} has no conjugate pair")
                break
    return bad


def check_k_norms(res, nu: str, ys, prec: int):
    """`k_norm_bounds` at each n of res, for one nu.

    The bounds are finite and positive and the product is k1 k2; between
    the smallest n and the others the smallnorm suite's AC-8 relations hold
    (normalised bounds within slack 3, product decaying); and at the seeded
    axis points ys[n] the kernel moduli |eta1(iy)| and |eta2(-iy)| as the
    integrals read them (D1 from the cached grid) agree within the
    integrals' own target 2^-(prec/8) with the same moduli assembled here
    with D1 by the adaptive route.  Returns the failures.
    """
    bad = []
    tol = mpf(2) ** (-(prec // 8))
    chi = sn.CutoffChi()
    with workprec(prec):
        nu_f = mpf(nu)
        for n, r in res.items():
            k1, k2, prod = r["k1_bound"], r["k2_bound"], r["product"]
            if not all(mp.isfinite(v) and v > 0 for v in (k1, k2, prod)):
                bad.append(f"n={n}: bounds {mp.nstr(k1, 3)}, "
                           f"{mp.nstr(k2, 3)}, {mp.nstr(prod, 3)}")
            elif abs(prod - k1 * k2) > mpf(2) ** (-(prec // 2)) * prod:
                bad.append(f"n={n}: product is not k1 k2")
        n0 = min(res)
        b1 = {n: r["k1_bound"] * n ** nu_f * mp.log(n) ** nu_f
              for n, r in res.items()}
        b2 = {n: r["k2_bound"] * n ** (-nu_f) * mp.log(n) ** nu_f
              for n, r in res.items()}
        for n in res:
            if n != n0 and not (b1[n] <= 3 * b1[n0] and b2[n] <= 3 * b2[n0]):
                bad.append(f"n={n}: normalised bounds above 3x those at "
                           f"n={n0}")
            if n != n0 and not res[n]["product"] < res[n0]["product"]:
                bad.append(f"n={n}: product does not decay from n={n0}")
        for n in res:
            for y in map(mpf, ys[n]):
                for sign, kernel, j in ((1, sn.eta1_modulus, sn.j1_modulus),
                                        (-1, sn.eta2_modulus,
                                         sn.j2_modulus)):
                    z = mpc(0, sign * y)
                    own = j(y, n, nu, prec) * chi(y, prec) * abs(
                        d1n(z, n, nu, prec, adaptive=True)
                        * d2(z, nu, prec)) ** 2
                    read = kernel(y, n, nu, chi, prec)
                    if not abs(read - own) <= tol * own:
                        bad.append(f"n={n}: |eta(z={mp.nstr(z, 6)})| "
                                   f"{mp.nstr(read, 8)}, adaptive D1 gives "
                                   f"{mp.nstr(own, 8)}")
    return bad


def check_asymptotics(out: str, points, n: int, nu: str, regime: str):
    """`oscq asymptotics` rows against their stated error band.

    outer: |pred - actual| / |actual| <= epsilon_n.  inner: AC-9's additive
    band with constant 1, |actual - pref (t+ + t-)| <= (3 log n / n)
    (|t+| + |t-|) |pref| + |pref| epsilon_n, the terms taken at the point
    reflected into Re z > 0 (the polynomial obeys p(-conj z) =
    (-1)^n conj p(z)).  Relative error is unbounded near the zeros, so it is
    not used there.  Returns (bits used, failures).
    """
    with open(out + ".manifest.json") as fh:
        bits = int(json.load(fh)["precision_bits_used"])
    rows = read_csv(out, ASYMPTOTICS_HEADER)
    if len(rows) != len(points):
        return bits, [f"{len(rows)} rows for {len(points)} points"]
    bad = []
    worst = mpf(0)
    with workprec(bits + 32):
        eps = epsilon_n(n, nu)
        for (re_s, im_s), r in zip(points, rows):
            z = mpc(mpf(re_s), mpf(im_s))
            if abs(mpc(mpf(r[0]), mpf(r[1])) - z) > mpf(2) ** (16 - bits):
                bad.append(f"row for ({re_s}, {im_s}) reports another point")
                continue
            pred = mpc(mpf(r[2]), mpf(r[3]))
            actual = mpc(mpf(r[4]), mpf(r[5]))
            if regime == "outer":
                q = abs(pred - actual) / abs(actual) / eps
            else:
                zr = -mp.conj(z) if z.real < 0 else z
                pref, tp, tm = inner_terms(zr, n, nu, bits)
                band = (3 * mp.log(n) / n * (abs(tp) + abs(tm)) + eps) \
                    * abs(pref)
                q = abs(actual - pred) / band
            worst = max(worst, q)
        if worst > 1:
            bad.append(f"{regime} error {mp.nstr(worst, 3)} x its band")
    return bits, bad
