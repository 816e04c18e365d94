import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from oscq import verify, zeros
from oscq.moments import MonicPolynomial, SolverError, Variable
from oscq.mpfun import workprec
from oscq.zeros import (ZeroSet, ecdf_vs_psi, find_zeros,
                        fixed_eval_with_deriv, gauss_int, root_scale,
                        zero_line_stats)

from conftest import get_poly, get_tilde, get_zeros
from test_recurrence_props import nus, precs

PREC = 256
SCALE = root_scale(PREC)     # find_zeros' fixed-point scale at PREC


def test_quadratic_roots():
    p = MonicPolynomial(recurrence=((0, 1), (0, -1)),   # x^2 + 1
                        variable=Variable.RAW_X, prec=PREC)
    zs = find_zeros(p)
    with workprec(PREC):
        assert abs(zs.roots[0] + mpc(0, 1)) <= mpf(2) ** -120
        assert abs(zs.roots[1] - mpc(0, 1)) <= mpf(2) ** -120


def test_non_finite_float_roots_are_a_solver_error(monkeypatch):
    float_stage = zeros._aberth

    def diverged(z, *args):
        corr = float_stage(z, *args)
        z[0] = complex("nan")
        return corr

    monkeypatch.setattr(zeros, "_aberth", diverged)
    p = MonicPolynomial(recurrence=((0, 1), (0, -1)),
                        variable=Variable.RAW_X, prec=PREC)
    with pytest.raises(SolverError):
        find_zeros(p)


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
    a = find_zeros(tilde)
    b = find_zeros(tilde)
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


def test_axis_roots_in_imaginary_order():
    # two roots on Re w = 0 at nu = 0.999, n = 16, equal in Re to rounding
    zs = get_zeros(16, "0.999")
    with workprec(zs.prec):
        axis = [w.imag for w in zs.roots
                if abs(w.real) < mpf(2) ** -(zs.prec // 2)]
    assert len(axis) == 2
    assert axis[0] < axis[1]


def _assert_fixed_matches_mpc(poly, z):
    """The fixed-point (P_n, P_n', P_{n-1}) at z, times 2^(e - SCALE),
    equals the mpc recurrence at PREC + 64 bits to 2^-PREC of the size of
    (P_n, P_n') (or of |P_{n-1}|, if larger).  Returns e."""
    zr, zi = gauss_int(z, SCALE)
    pr, pi, dr, di, qr, qi, e = fixed_eval_with_deriv(poly.recurrence,
                                                      SCALE)(zr, zi)
    with workprec(PREC, guard=64):
        zq = mpc(mpf((zr, -SCALE)), mpf((zi, -SCALE)))
    val, der = poly.eval_with_deriv(zq, PREC + 64)
    prev = MonicPolynomial(recurrence=poly.recurrence[:-1],
                           variable=poly.variable,
                           prec=poly.prec).eval(zq, PREC + 64)
    with workprec(2 * SCALE):
        size = mp.sqrt(abs(val) ** 2 + abs(der) ** 2)
        for (xr, xi), ref, tol in (((pr, pi), val, size),
                                   ((dr, di), der, size),
                                   ((qr, qi), prev, max(size, abs(prev)))):
            got = mpc(mpf((xr, e - SCALE)), mpf((xi, e - SCALE)))
            assert abs(got - ref) <= mpf(2) ** -PREC * tol
    return e


def _near(roots, k, e, theta):
    """A point 2^-e from root k (off the roots for e = 0)."""
    with workprec(PREC, guard=64):
        return roots[k % len(roots)] + mpf(2) ** -e * mp.expjpi(theta)


offsets = dict(k=st.integers(0, 199), e=st.integers(0, 320),
               theta=st.floats(0, 2))


@given(n=st.integers(1, 64), nu=nus, **offsets)
def test_fixed_eval_matches_mpc_rescaled(n, nu, k, e, theta):
    _assert_fixed_matches_mpc(get_tilde(n, nu),
                              _near(get_zeros(n, nu).roots, k, e, theta))


coeff = st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(lambda t: mpc(*t))


@given(ab=st.lists(st.tuples(coeff, coeff), min_size=1, max_size=24),
       **offsets)
def test_fixed_eval_matches_mpc_complex_recurrence(ab, k, e, theta):
    # complex a_k and b_k: the imaginary part of b_k enters P and P'
    poly = MonicPolynomial(recurrence=tuple(ab), variable=Variable.RAW_X,
                           prec=PREC)
    _assert_fixed_matches_mpc(poly, _near(find_zeros(poly).roots,
                                          k, e, theta))


@pytest.mark.parametrize("z", ["0.3-0.01j", "0", "0.9+0.2j", "-1.5-0.5j"])
def test_fixed_eval_shifts_up_at_n200(z):
    # |P_200| and |P'_200| fall hundreds of bits below P_0 = 1 on [-1, 1]
    # in the rescaled frame, so the block must also be shifted up
    _assert_fixed_matches_mpc(get_tilde(200, "0.37"), mpc(complex(z)))


def test_fixed_eval_exponent_follows_shifts_both_ways():
    # raw frame: |P_64(x)| grows by hundreds of bits, the block is shifted
    # down (e > 0); rescaled frame near a root: shifted up (e < 0)
    with workprec(PREC):
        x = mpc(0, 32 * mp.pi)
    assert _assert_fixed_matches_mpc(get_poly(64, "0.25")[0], x) > 0
    root = get_zeros(64, "0.25").roots[20]
    assert _assert_fixed_matches_mpc(get_tilde(64, "0.25"), root) < 0


# roots at the polynomial's precision, as gauss_rule and `oscq zeros` solve
# (64, 128, 256 and 512 bits), and at a precision below its recurrence's
# (a 256-bit recurrence carried at 128 bits): the scale follows p.prec
@pytest.mark.parametrize("prec, solve_prec", [(64, 64), (128, 128),
                                              (256, 128), (256, 256),
                                              (512, 512)])
@pytest.mark.parametrize("nu", ["0", "0.25", "0.999"])
@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_roots_are_exact_at_the_root_scale(n, nu, prec, solve_prec):
    # quadrule re-reads the roots as Gaussian ints at root_scale(zs.prec)
    if solve_prec == prec:
        zs = get_zeros(n, nu, prec)
    else:
        zs = find_zeros(replace(get_tilde(n, nu, prec), prec=solve_prec))
    assert zs.prec == solve_prec
    scale = root_scale(zs.prec)
    with workprec(2 * scale):
        for w in zs.roots:
            re, im = gauss_int(w, scale)
            assert mpc(mpf((re, -scale)), mpf((im, -scale))) == w


@pytest.mark.parametrize("n, nu", [(64, "0.25"), (200, "0.37"), (33, "0")])
def test_equilibrium_seeds_keep_the_float_stage_short(monkeypatch, n, nu):
    # from the equilibrium-law seeds the float stage takes about 4
    # evaluations per root
    evals = [0]
    make = zeros._float_eval_with_deriv

    def counting(recurrence):
        pair = make(recurrence)

        def counted(z):
            evals[0] += 1
            return pair(z)
        return counted

    monkeypatch.setattr(zeros, "_float_eval_with_deriv", counting)
    find_zeros(get_tilde(n, nu))
    assert evals[0] <= 6 * n


def _assert_mirror_closed(poly, zs, signs):
    """A root held as a mirror image is bitwise the mirror (sr re, si im),
    signs = (sr, si), of an iterated partner; every root's Newton
    correction by the mpc oracle at 2 prec is within the contract
    2^-(prec/2), the set closes under the mirror within that contract and
    no two roots lie closer than it."""
    sr, si = signs
    tol = mpf(2) ** -(zs.prec // 2)

    def flip(w):
        return mpc(sr * w.real, si * w.imag)

    with workprec(2 * zs.prec):
        for k, j in enumerate(zs.mirror_of):
            if j is not None:
                assert zs.mirror_of[j] is None
                assert zs.roots[k] == flip(zs.roots[j])
        roots = set(zs.roots)
        for i, w in enumerate(zs.roots):
            val, der = poly.eval_with_deriv(w, 2 * zs.prec)
            assert abs(val / der) <= tol
            assert flip(w) in roots or \
                min(abs(flip(w) - v) for v in zs.roots) <= tol
            assert all(abs(w - v) > tol for v in zs.roots[i + 1:])


@given(n=st.integers(1, 64), nu=nus, prec=precs)
def test_mirrored_roots_are_exact_and_certified(n, nu, prec):
    zs = get_zeros(n, nu, prec)
    assert zs.prec == prec
    _assert_mirror_closed(get_tilde(n, nu, prec), zs, (-1, 1))


@pytest.mark.parametrize("n", [16, 64, 200])
def test_each_iterated_root_takes_one_sweep_per_rung(n):
    # the float roots' ~50 bits reach ~150 in one sweep at the 214-bit
    # rung, past 2^-(prec/2) at 256 bits, so the first sweep at
    # root_scale(256) freezes every iterated root; at 512 bits a second
    # rung at 417 bits (~350), and at 1024 bits a third at 823 (~750),
    # leave that one sweep at root_scale(prec)
    zs = get_zeros(n, "0.25")
    iterated = n - zs.mirrored
    assert zs.evaluations[0][0] == "float"
    assert zs.evaluations[1:] == ((214, iterated),
                                  (root_scale(256), iterated))
    zs = get_zeros(n, "0.25", 512)
    iterated = n - zs.mirrored
    assert zs.evaluations[1:-1] == ((214, iterated), (417, iterated))
    assert zs.evaluations[-1] == (root_scale(512), iterated)
    zs = get_zeros(n, "0.25", 1024)
    iterated = n - zs.mirrored
    assert zs.evaluations[1:] == ((214, iterated), (417, iterated),
                                  (823, iterated),
                                  (root_scale(1024), iterated))


# every rung of the fixed stage's ladder, which the property tests'
# precisions (64 to 256 bits) reach only in part
@pytest.mark.parametrize("prec, ladder", [(512, (214, 417, 608)),
                                          (1024, (214, 417, 823, 1120))])
@pytest.mark.parametrize("nu", ["0", "0.25", "0.999"])
@pytest.mark.parametrize("n", [16, 64])
def test_roots_through_every_rung_are_exact_and_certified(n, nu, prec,
                                                          ladder):
    zs = get_zeros(n, nu, prec)
    assert tuple(s for s, _ in zs.evaluations[1:]) == ladder
    assert max(zs.residuals) <= mpf(2) ** -(prec // 2)
    scale = root_scale(prec)
    with workprec(2 * scale):
        for w in zs.roots:
            re, im = gauss_int(w, scale)
            assert mpc(mpf((re, -scale)), mpf((im, -scale))) == w
    _assert_mirror_closed(get_tilde(n, nu, prec), zs, (-1, 1))


@pytest.mark.parametrize("n, nu, mirrored, on_axis", [
    (14, "0.842937417", 6, 2),    # two roots on Re w = 0
    (14, "0.842937415", 6, 0),    # a pair at Re w = +-7.6e-7, unpaired
    (14, "0.842936415", 7, 0),    # the pair at Re w = +-2.7e-5, mirrored
    (16, "0.999999", 7, 2),
    (64, "0.25", 32, 0),
])
def test_pairing_near_the_axis(n, nu, mirrored, on_axis):
    # near nu = 0.842937416 two roots of P~_14 leave the axis as a mirror
    # pair; pairs nearer the axis than MIRROR_AXIS and the axis roots
    # themselves are iterated on their own
    zs = get_zeros(n, nu)
    _assert_mirror_closed(get_tilde(n, nu), zs, (-1, 1))
    assert zs.mirrored == mirrored
    with workprec(zs.prec):
        axis = [k for k, w in enumerate(zs.roots)
                if abs(w.real) < mpf(2) ** -(zs.prec // 2)]
    assert len(axis) == on_axis
    assert all(zs.mirror_of[k] is None for k in axis)
    assert all(k not in zs.mirror_of for k in axis)


@pytest.mark.parametrize("n, nu", [(64, "0.25"), (16, "0.999999"),
                                   (14, "0.842936415")])
def test_mirrored_roots_match_the_unpaired_route(monkeypatch, n, nu):
    # with no mirror every root iterates on its own; the roots agree to
    # 2^-prec, the corrections do not (the update order differs)
    zs = get_zeros(n, nu)
    monkeypatch.setattr(zeros, "_mirrors", lambda recurrence: [])
    alone = find_zeros(get_tilde(n, nu))
    assert alone.mirrored == 0
    with workprec(2 * zs.prec):
        for w, v in zip(zs.roots, alone.roots):
            assert abs(w - v) <= mpf(2) ** -zs.prec


def test_real_raw_polynomial_pairs_conjugates():
    # x^2 + 1: a_k = 0 and b_k real, so both mirrors apply; conjugation
    # pairs +-i, the reflection w -> -conj(w) would fix both on its axis
    p = MonicPolynomial(recurrence=((0, 1), (0, -1)),
                        variable=Variable.RAW_X, prec=PREC)
    assert zeros._mirrors(p.recurrence) == [(1, -1), (-1, 1)]
    zs = find_zeros(p)
    assert zs.mirrored == 1
    _assert_mirror_closed(p, zs, (1, -1))
    with workprec(PREC):
        assert zs.roots[0] == mp.conj(zs.roots[1])


def test_complex_recurrence_mirrors_nothing():
    rng = random.Random(73)
    rec = tuple((mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                 mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)))
                for _ in range(8))
    assert zeros._mirrors(rec) == []
    zs = find_zeros(MonicPolynomial(recurrence=rec, variable=Variable.RAW_X,
                                    prec=PREC))
    assert zs.mirror_of == (None,) * 8
