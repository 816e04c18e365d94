"""Simultaneous root finding for the monic orthogonal polynomials and
zero-distribution statistics against the limiting laws.

find_zeros refines all n roots together by Aberth-Ehrlich iteration,
without deflation, which is robust for the clustered complex roots of
these polynomials: first in complex floats to a Newton correction of
1e-12, then in block-floating fixed point, each sweep at the precision it
can deliver.  The float roots are taken to carry 50 bits, and a sweep
from b bits delivers min(3b, 2b + 53): Newton's tripling, capped by the
float Aberth sum below.  So the fixed stage climbs a ladder of one sweep
per rung at the bits it delivers plus 64 (214, 417, then 823 bits) while
the rung lies below root_scale(prec), then sweeps at root_scale(prec),
where the returned roots are exact, until every Newton correction is
below 2^-(prec/2).  From the equilibrium law's (k + 1/2)/n quantiles in
the rescaled frame, the float stage takes about 4 evaluations per root at
every n from 16 to 200, and the fixed stage one per rung and one at
root_scale(prec) at 256, 512 and 1024 bits.  The block floats because the
values fall by hundreds of bits over the recurrence in the rescaled frame
(n = 200).

The fixed stage's Aberth sum s = sum_{j != k} 1/(z_k - z_j) is a complex
float; it only scales a Newton step N = P/P' already below 2^-40, and
the update N/(1 - N s) is formed in integers from s's exact value.  Its
error from s's rounding is about |N|^2 2^-53 |s|: below 2^-(prec + 53)
|s| in a frozen root's last step, where the roots moved by at most
2^-(prec + 46) against an integer sum at 64 to 512 bits and n up to 200.
The same error caps a rung at 2b + 53 bits: at n = 16 to 200, the
417-bit rung delivers 342 to 364 bits (model 353), the 823-bit rung 725
to 775 (model 759).  Where the recurrence has a mirror symmetry, the fixed
stage iterates one root of each mirror pair and holds the other as its
exact image (ZeroSet.mirror_of, which quadrule reuses).  Runs are
deterministic for a given polynomial, at its precision.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import isqrt

from mpmath import mp, mpc, mpf

from .equilibrium import epsilon_n, psi_cdf, psi_quantiles
from .moments import MonicPolynomial, SolverError, Variable
from .mpfun import man_exp, to_fixed, workprec

MAX_SWEEPS = 500
FLOAT_TOL = 1e-12   # hand-over point of the float stage
FLOAT_BITS = 50     # bits its roots are taken to carry
FIXED_GUARD = 32    # bits of the fixed-point stage beyond prec + 64
WINDOW = 32         # its P, P' block is renormalised past 2^(scale +- WINDOW)
MIRROR_AXIS = 1e-6  # float roots nearer a mirror's axis are not paired
MIRROR_MATCH = 1e-9  # largest mirror mismatch of a paired float root


def root_scale(prec: int) -> int:
    """find_zeros' fixed-point scale at prec, where its roots are exact."""
    return prec + 64 + FIXED_GUARD


def _ladder(prec: int) -> list:
    """The fixed stage's scales at prec: from the float roots' FLOAT_BITS,
    one rung per sweep, a sweep from b bits delivering min(3b, 2b + 53),
    at the bits the rung delivers plus 64, while the rung lies below
    root_scale(prec); then root_scale(prec).  Roots past prec/2 bits get
    no rung: from b > prec/2 bits the next one, at min(3b, 2b + 53) + 64,
    would lie above root_scale(prec) = prec + 96."""
    bits, out = FLOAT_BITS, []
    while (nxt := min(3 * bits, 2 * bits + 53)) + 64 < root_scale(prec):
        bits = nxt
        out.append(bits + 64)
    return out + [root_scale(prec)]


@dataclass(frozen=True)
class ZeroSet:
    roots: tuple          # mpc, sorted by (Re on the 2^-(prec/2) grid, Im)
    residuals: tuple      # each root's last Newton correction |P/P'|
    variable: Variable
    prec: int
    # per root, the index of the root it is the exact mirror image of, or
    # None for a root that was iterated (empty for a set built by hand)
    mirror_of: tuple = ()
    # (stage, evaluations of P and P') per stage in order: "float", then
    # the fixed-point scale in bits of each rung and of the last stage
    evaluations: tuple = ()

    @property
    def mirrored(self) -> int:
        """How many roots were taken as mirror images of their partners."""
        return sum(k is not None for k in self.mirror_of)


def _initial_guesses(p: MonicPolynomial):
    """Float seeds.  In the rescaled frame, the (k + 1/2)/n quantiles of
    the equilibrium law (the roots' limiting real parts) on the line
    Im w = Im(sum a_k)/n, the roots' exact centroid, which is -nu/(2n) to
    O(n^-2); on the unit circle in the raw frame."""
    n = p.degree
    if p.variable is Variable.RESCALED_Z:
        y = sum(complex(a) for a, _ in p.recurrence).imag / n
        return [complex(x, y) for x in psi_quantiles(n)]
    return [cmath.exp(2j * cmath.pi * (k + 0.5) / n) for k in range(n)]


def _float_eval_with_deriv(recurrence):
    """z -> (c P(z), c P'(z)) for some c > 0, in Python complex floats;
    the values are rescaled whenever they leave [1e-100, 1e100]."""
    ab = [(complex(a), complex(b)) for a, b in recurrence]

    def pair(z):
        p_prev, p, d_prev, d = 0j, 1 + 0j, 0j, 0j
        for a, b in ab:
            t = z - a
            p_prev, p, d_prev, d = (p, t * p - b * p_prev,
                                    d, p + t * d - b * d_prev)
            s = abs(p) + abs(d)
            if not 1e-100 < s < 1e100:
                p_prev, p, d_prev, d = p_prev / s, p / s, d_prev / s, d / s
        return p, d
    return pair


def _aberth(z, step, tol, pairs=None, mirror=None, sweeps=MAX_SWEEPS):
    """Up to `sweeps` Aberth-Ehrlich sweeps over the roots z, for every
    stage.  step(z, k), the stage's arithmetic, evaluates P and P' at root
    k, moves it by one Aberth update and returns its Newton correction's
    size: 0 where P vanished (k stays), None where P' did (k is nudged off
    the critical point).  A root is frozen once its correction is below
    tol.  Root pairs[k] is held as mirror(z[k]) with k's correction: only k
    iterates, and its Aberth sum still runs over all other roots.  Returns
    each root's last correction, below tol exactly for frozen roots, and
    the number of steps taken, one evaluation each."""
    pairs = pairs or {}
    corr = [tol] * len(z)
    for k, j in pairs.items():
        z[j] = mirror(z[k])
    active = [k for k in range(len(z)) if k not in pairs.values()]
    evals = 0
    for _ in range(sweeps):
        evals += len(active)
        still = []
        for k in active:
            c = step(z, k)
            if c is not None:
                corr[k] = c
            if c is None or not c < tol:
                still.append(k)
            j = pairs.get(k)
            if j is not None:
                z[j], corr[j] = mirror(z[k]), corr[k]
        active = still
        if not active:
            break
    return corr, evals


def _float_step(recurrence, tol):
    """_aberth's step on complex floats, by _float_eval_with_deriv; the
    correction is |P/P'|, a nudge adds tol."""
    pair = _float_eval_with_deriv(recurrence)

    def step(z, k):
        zk = z[k]
        pv, dv = pair(zk)
        if pv == 0:
            return 0
        if dv == 0:
            z[k] += tol
            return None
        newton = pv / dv
        s = sum(1 / (zk - w) for w in z[:k]) \
            + sum(1 / (zk - w) for w in z[k + 1:])
        denom = 1 - newton * s
        z[k] -= newton if denom == 0 else newton / denom
        return abs(newton)
    return step


def gauss_int(x, scale: int):
    """x (int, mpf or mpc) as a Gaussian int (re, im) at 2^scale,
    truncated toward zero, without rounding x first."""
    x = mp.mpmathify(x)
    return (to_fixed(*man_exp(x.real), scale),
            to_fixed(*man_exp(x.imag), scale))


def fixed_eval_with_deriv(recurrence, scale: int):
    """(zr, zi) -> (pr, pi, dr, di, qr, qi, e): P_n, P_n' and P_{n-1} at
    z = (zr + i zi) 2^-scale, Gaussian ints times 2^(e - scale).  The block
    of P_{k-1}, P_k and their derivatives is shifted up or down to its top
    bit at scale whenever it leaves scale +- WINDOW bits."""
    ab = [gauss_int(a, scale) + gauss_int(b, scale) for a, b in recurrence]
    hi, lo = scale + WINDOW, scale - WINDOW

    def pair(zr, zi):
        ur = ui = vi = er = ei = dr = di = 0   # P_{k-1}, P_k, P'_{k-1}, P'_k
        vr, e = 1 << scale, 0
        for ar, ai, br, bi in ab:
            tr, ti = zr - ar, zi - ai
            ur, ui, vr, vi = (vr, vi,
                              (tr * vr - ti * vi - br * ur + bi * ui) >> scale,
                              (tr * vi + ti * vr - br * ui - bi * ur) >> scale)
            er, ei, dr, di = (dr, di,
                              ur + ((tr * dr - ti * di - br * er + bi * ei)
                                    >> scale),
                              ui + ((tr * di + ti * dr - br * ei - bi * er)
                                    >> scale))
            top = max(vr.bit_length(), vi.bit_length(),   # of |x|
                      dr.bit_length(), di.bit_length())
            if top > hi:
                s = top - scale
                e += s
                ur, ui, vr, vi = ur >> s, ui >> s, vr >> s, vi >> s
                er, ei, dr, di = er >> s, ei >> s, dr >> s, di >> s
            elif top < lo:
                s = scale - top
                e -= s
                ur, ui, vr, vi = ur << s, ui << s, vr << s, vi << s
                er, ei, dr, di = er << s, ei << s, dr << s, di << s
        return vr, vi, dr, di, ur, ui, e
    return pair


def _div(xr, xi, yr, yi, scale: int):
    """(x / y) 2^scale for Gaussian ints x and y != 0, floored."""
    den = yr * yr + yi * yi
    return (((xr * yr + xi * yi) << scale) // den,
            ((xi * yr - xr * yi) << scale) // den)


def _mirrors(recurrence):
    """The mirrors (re, im) -> (sr re, si im) that map P's zero set to
    itself, as sign pairs (sr, si): conjugation (1, -1) when every a_k and
    b_k is real, and (-1, 1), w -> -conj(w), when every b_k is real and
    every a_k imaginary, for then P(-conj w) = (-1)^n conj P(w)."""
    ab = [(mp.mpmathify(a), mp.mpmathify(b)) for a, b in recurrence]
    if any(b.imag for _, b in ab):
        return []
    out = []
    if not any(a.imag for a, _ in ab):
        out.append((1, -1))
    if not any(a.real for a, _ in ab):
        out.append((-1, 1))
    return out


def _mirror_pairs(zf, signs):
    """{k: j} for the float roots zf: root j is to be held as the mirror
    image of root k under signs.  A root pairs with the root nearest its
    mirror image when it lies at least MIRROR_AXIS from the mirror's axis,
    the two are each other's nearest match and they miss each other's
    image by at most MIRROR_MATCH, both relative to max(1, |z|).  Roots on
    or near the axis (real roots of P, pairs about to meet there) stay
    unpaired, so two axis roots are never forced into one pair."""
    sr, si = signs
    near = []
    for z in zf:
        m = complex(sr * z.real, si * z.imag)
        size = max(1.0, abs(z))
        gap, j = min((abs(w - m), i) for i, w in enumerate(zf))
        off_axis = abs(m - z) >= 2 * MIRROR_AXIS * size
        near.append(j if off_axis and gap <= MIRROR_MATCH * size else None)
    return {k: j for k, j in enumerate(near)
            if j is not None and k < j and near[j] == k}


def _fixed_step(recurrence, tol: int, scale: int):
    """_aberth's step on roots held as Gaussian ints (re, im) at 2^scale,
    by fixed_eval_with_deriv.  P/P', q = 1 - (P/P') s and the update are
    integer arithmetic at that scale; the Aberth sum s = sum_{j != k}
    1/(z_k - z_j) is a complex float, each difference exact in integers
    and rounded once, by int/int division, and q takes s's exact dyadic
    value.  The correction is |P/P'|^2 at 2^(2 scale); a nudge adds tol,
    at 2^scale."""
    pair = fixed_eval_with_deriv(recurrence, scale)
    one = 1 << scale

    def step(z, k):
        zr, zi = z[k]
        pr, pi, dr, di = pair(zr, zi)[:4]
        if pr == pi == 0:
            return 0
        if dr == di == 0:
            z[k] = (zr + tol, zi)
            return None
        nr, ni = _div(pr, pi, dr, di, scale)
        s = 0j
        for j, (wr, wi) in enumerate(z):
            if j != k:
                s += 1 / complex((zr - wr) / one, (zi - wi) / one)
        (sr, er), (si, ei) = (s.real.as_integer_ratio(),
                              s.imag.as_integer_ratio())
        e = max(er, ei)            # s = (sr + i si) / e, e = 2^t
        sr, si, t = sr * (e // er), si * (e // ei), e.bit_length() - 1
        qr = one - ((nr * sr - ni * si) >> t)   # 1 - newton * s
        qi = -((nr * si + ni * sr) >> t)
        if qr == qi == 0:
            z[k] = (zr - nr, zi - ni)
        else:
            qr, qi = _div(nr, ni, qr, qi, scale)
            z[k] = (zr - qr, zi - qi)
        return nr * nr + ni * ni
    return step


def find_zeros(p: MonicPolynomial) -> ZeroSet:
    """All roots of p with Newton corrections below 2^(-prec/2), at prec =
    p.prec: Aberth in floats from the seeds, then in fixed point from the
    float roots, one sweep at each rung of `_ladder(prec)` and then at
    2^-root_scale(prec) until every root is frozen, every stage in
    `_aberth`'s loop.  When the recurrence maps the zero set to itself by
    a mirror (`_mirrors`), the fixed stage iterates one root of each float
    pair that `_mirror_pairs` matches and holds the other as its exact
    mirror image; of two mirrors, the one that pairs more roots.  Roots
    are sorted by real part on the 2^-(prec/2) grid, then by imaginary
    part; ZeroSet.evaluations counts each stage's evaluations."""
    if p.degree < 1:
        raise ValueError("degree must be >= 1")
    prec, n = p.prec, p.degree
    scale = root_scale(prec)
    half = prec // 2
    with workprec(prec, guard=64):
        zf = _initial_guesses(p)
        _, evals = _aberth(zf, _float_step(p.recurrence, FLOAT_TOL),
                           FLOAT_TOL)
        if not all(map(cmath.isfinite, zf)):   # a nan would read as 0
            raise SolverError("float Aberth stage left a non-finite root")
        pairs, signs = max(((_mirror_pairs(zf, s), s)
                            for s in _mirrors(p.recurrence)),
                           key=lambda t: len(t[0]), default=({}, (1, 1)))
        fr, fi = signs
        work = [("float", evals)]
        ladder = _ladder(prec)                # ends at scale
        z = [gauss_int(w, ladder[0]) for w in zf]
        for s, at in zip(ladder, ladder[:1] + ladder):
            z = [(zr << s - at, zi << s - at) for zr, zi in z]
            grid = max(s - half, 0)           # 2^-half at 2^s, or 2^-s
            corr2, evals = _aberth(
                z, _fixed_step(p.recurrence, 1 << grid, s), 1 << 2 * grid,
                pairs, lambda w: (fr * w[0], fi * w[1]),
                MAX_SWEEPS if s == scale else 1)
            work.append((s, evals))
        # isqrt(c) < 2^grid has at most prec + 64 bits: below tol, exact
        corr = [mpf((isqrt(c), -scale)) for c in corr2]
        if not max(corr2) < 1 << 2 * grid:
            raise SolverError(
                f"Aberth iteration did not converge in {MAX_SWEEPS} sweeps; "
                f"worst Newton correction {mp.nstr(max(corr), 6)}")
        order = sorted(range(n), key=lambda k: (
            (z[k][0] + (1 << (grid - 1))) >> grid, z[k][1]))
        pos = {k: i for i, k in enumerate(order)}
        leader = {j: k for k, j in pairs.items()}
        return ZeroSet(roots=tuple(mpc(mpf((z[k][0], -scale)),
                                       mpf((z[k][1], -scale)))
                                   for k in order),
                       residuals=tuple(corr[k] for k in order),
                       variable=p.variable, prec=prec,
                       mirror_of=tuple(pos[leader[k]] if k in leader
                                       else None for k in order),
                       evaluations=tuple(work))


@dataclass(frozen=True)
class ZeroLineStats:
    max_dev: object        # mpf, or None when no roots are retained
    zeros_considered: int
    epsilon_n: mpf


def zero_line_stats(zs: ZeroSet, n: int, nu, delta) -> ZeroLineStats:
    """Deviation of retained zeros from the vertical line Re = nu*pi/2.

    Retained means outside the disks around 0 and +-1 in the rescaled
    frame (|w| < delta/pi and |w -+ 1| < delta/pi are dropped, matching
    the raw-frame disks of radius n*delta).  Deviations are measured in
    the raw frame, z = i n pi w.
    """
    if zs.variable is not Variable.RESCALED_Z:
        raise ValueError("zero_line_stats expects rescaled-frame roots")
    with workprec(zs.prec):
        nu = mpf(nu)
        delta = mpf(delta)
        rad = delta / mp.pi
        target = nu * mp.pi / 2
        devs = []
        for w in zs.roots:
            if abs(w) < rad or abs(w - 1) < rad or abs(w + 1) < rad:
                continue
            re_z = -n * mp.pi * w.imag
            devs.append(abs(re_z - target))
        return ZeroLineStats(max_dev=+max(devs) if devs else None,
                             zeros_considered=len(devs),
                             epsilon_n=epsilon_n(n, nu, zs.prec))


def ecdf_vs_psi(zs: ZeroSet):
    """Kolmogorov distance between the real-part empirical CDF and the
    equilibrium CDF, at zs.prec."""
    if len(zs.roots) == 0:
        raise ValueError("empty zero set")
    with workprec(zs.prec):
        xs = sorted(w.real for w in zs.roots)
        n = len(xs)
        dist = mpf(0)
        for i, x in enumerate(xs):
            x = min(max(x, mpf(-1)), mpf(1))
            fx = psi_cdf(x, zs.prec)
            dist = max(dist, abs(mpf(i + 1) / n - fx), abs(mpf(i) / n - fx))
        return +dist
