import pytest
from mpmath import mp, mpc, mpf

from oscq import moments
from oscq.moments import (SolverError, _moments, hankel_det, moment,
                          monic_op, rescale_to_tilde)
from oscq.mpfun import GUARD_BITS, workprec
from oscq.verify import orthogonality_residuals

from conftest import get_poly

PREC = 192


def _chebyshev(n: int, nu, work: int):
    """Oracle: pairs (a_k, b_k), k < n, by the Chebyshev algorithm in mpf
    at work bits; sig[l] = L(P_k x^l), so sig[k] = h_k."""
    with workprec(work):
        sig = _moments(2 * n, mpf(nu))
        old = [0] * (2 * n)
        rec = [(sig[1] / sig[0], sig[0])]
        for k in range(1, n):
            (a, b), h = rec[-1], sig[k - 1]
            new = [0] * k + [sig[l + 1] - a * sig[l] - b * old[l]
                             for l in range(k, 2 * n - k)]
            rec.append((new[k + 1] / new[k] - sig[k] / h, new[k] / h))
            old, sig = sig, new
        return rec


def _coefficients(recurrence) -> tuple:
    """Oracle: power-basis coefficients c_0..c_{n-1} (leading 1 omitted)
    of the recurrence's polynomial, expanded at the ambient precision."""
    older, old = [], [mpf(1)]
    for a, b in recurrence:    # low coefficient first
        older, old = old, [x - a * c - b * o for x, c, o in
                           zip([0] + old, old + [0], older + [0, 0])]
    return tuple(old[:-1])


def _power_residual(recurrence, nu, work: int):
    """Oracle: max_j<n |sum_k c_k m_{j+k} + m_{j+n}| / max|m_{j..j+n}|
    with the power-basis coefficients, all at work bits."""
    n = len(recurrence)
    with workprec(work):
        c, ms = _coefficients(recurrence), _moments(2 * n, mpf(nu))
        return max(abs(mp.fsum(ck * m for ck, m in zip(c, ms[j:]))
                       + ms[j + n]) / max(abs(m) for m in ms[j:j + n + 1])
                   for j in range(n))


def test_moment_normalization():
    for nu in ("0", "0.25", "0.5", "0.9"):
        assert moment(0, nu, PREC) == 1


def test_moment_pole_zeros():
    assert moment(1, 0, PREC) == 0
    for j in range(1, 41, 2):
        assert moment(j, 0, PREC) == 0


def test_moment_value_via_gamma_oracle():
    # m_2 at nu=0: 4 G(3/2) / G(-1/2) = 4 (sqrt(pi)/2) (-1/(2 sqrt(pi)))
    got = moment(2, 0, 256)
    with workprec(512):
        ref = 4 * mp.gamma(mpf(3) / 2) * mp.rgamma(mpf(-1) / 2)
        assert abs(got - ref) <= mpf(2) ** -240
        assert abs(got + 1) <= mpf(2) ** -240


def test_hankel_small_cases():
    assert hankel_det(1, "0.25", PREC) == 1
    with workprec(256):
        assert abs(hankel_det(2, 0, PREC) + 1) <= mpf(2) ** -180


def _bareiss_det(mat, n, prec):
    """Fraction-free elimination oracle (division-exact for integer
    matrices; here a structurally different elimination at 4x precision)."""
    with workprec(prec):
        a = [[mpf(mat[i][j]) for j in range(n)] for i in range(n)]
        prev = mpf(1)
        for k in range(n - 1):
            if a[k][k] == 0:
                for r in range(k + 1, n):
                    if a[r][k] != 0:
                        a[k], a[r] = a[r], a[k]
                        prev = -prev
                        break
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            prev = a[k][k]
        return a[n - 1][n - 1]


def test_hankel_matches_bareiss_oracle():
    n, prec = 4, 256
    got = hankel_det(n, "0.5", prec)
    ms = [moment(j, "0.5", 4 * prec) for j in range(2 * n - 1)]
    mat = [[ms[i + j] for j in range(n)] for i in range(n)]
    ref = _bareiss_det(mat, n, 4 * prec)
    with workprec(4 * prec):
        assert abs(got - ref) <= mpf(2) ** (-(prec // 2)) * abs(ref)


def test_monic_op_nu0_degree2():
    p = monic_op(2, 0, PREC)
    with workprec(256):
        c = _coefficients(p.recurrence)
        assert abs(c[0] - 1) <= mpf(2) ** -120
        assert abs(c[1]) <= mpf(2) ** -120


def test_monic_op_degree1_value():
    p = monic_op(1, "0.5", PREC)
    with workprec(512):
        m1 = 2 * mp.gamma(mpf(5) / 4) / mp.gamma(mpf(1) / 4)
        assert abs(_coefficients(p.recurrence)[0] + m1) <= mpf(2) ** -200


def test_monic_op_residual_certificate():
    p = monic_op(3, "0.25", PREC)
    assert p.residual <= mpf(2) ** (-(p.prec // 4))
    # recompute the re-orthogonality residuals directly
    ms = [moment(j, "0.25", 2 * p.prec) for j in range(2 * 3 + 1)]
    with workprec(2 * p.prec):
        c = _coefficients(p.recurrence)
        for j in range(3):
            r = sum(c[k] * ms[j + k] for k in range(3)) + ms[j + 3]
            scale = max(abs(ms[j + k]) for k in range(4))
            assert abs(r) <= mpf(2) ** (-(p.prec // 4)) * scale


def test_nu0_parity_of_coefficients():
    p = monic_op(6, 0, PREC)
    with workprec(p.prec):
        c = _coefficients(p.recurrence)
        scale = max(abs(ck) for ck in c) + 1
        for k in range(6):
            if (6 - k) % 2 == 1:
                assert abs(c[k]) <= mpf(2) ** (-(p.prec // 2)) * scale


def test_cramer_cross_oracle():
    nu, prec = "0.25", 192
    for n in (2, 3, 5, 6):
        p = monic_op(n, nu, prec)
        ms = [moment(j, nu, 4 * p.prec) for j in range(2 * n + 1)]
        with workprec(4 * p.prec):
            c = _coefficients(p.recurrence)
            h = mp.matrix([[ms[i + j] for j in range(n)] for i in range(n)])
            rhs = [-ms[j + n] for j in range(n)]
            det = mp.det(h)
            for k in range(n):
                hk = mp.matrix(h)
                for i in range(n):
                    hk[i, k] = rhs[i]
                ck = mp.det(hk) / det
                assert abs(c[k] - ck) <= \
                    mpf(2) ** (-(prec // 2)) * max(1, abs(ck))


def test_rescale_degree2():
    p2, pt2 = get_poly(2, 0)
    with workprec(256):
        ref = -1 / (4 * mp.pi ** 2)
        c = _coefficients(pt2.recurrence)
        assert abs(c[0] - ref) <= mpf(2) ** -200
        assert abs(c[1]) <= mpf(2) ** -200


def test_rescale_constant_term_transport():
    p, pt = get_poly(5, "0.25")
    with workprec(p.prec):
        base = mpc(0, 1) * 5 * mp.pi
        ref = _coefficients(p.recurrence)[0] * base ** -5
        assert abs(pt.eval(0, p.prec) - ref) <= mpf(2) ** (-p.prec + 24)


def test_rescale_reflection_symmetry():
    for n in (4, 5):
        _, pt = get_poly(n, "0.25")
        with workprec(pt.prec):
            coeffs = _coefficients(pt.recurrence)
            scale = max(abs(c) for c in coeffs)
            for k, c in enumerate(coeffs):
                ref = (-1) ** (n - k) * mp.conj(c)
                assert abs(c - ref) <= mpf(2) ** (-(pt.prec // 2)) * scale


def test_rescale_requires_raw_frame():
    _, pt = get_poly(2, 0)
    with pytest.raises(ValueError):
        rescale_to_tilde(pt)


def test_orthogonality_residual_deep():
    # polynomial built deep, quadrature pushed to the example tolerance
    prec = 128
    poly = monic_op(2, "0.25", 512)
    pt = rescale_to_tilde(poly)
    res, scale = orthogonality_residuals(pt, 2, "0.25", 256, js=[0],
                                         target=mpf(2) ** -96)[0]
    with workprec(256):
        assert abs(res) <= mpf(10) ** (-mpf("0.2") * prec) * scale


def test_orthogonality_degree_n_moment_not_zero():
    _, pt = get_poly(2, "0.25")
    res, scale = orthogonality_residuals(pt, 2, "0.25", 128, js=[2])[2]
    with workprec(192):
        assert abs(res) > mpf(10) ** -5 * scale


def test_orthogonality_odd_parity_nu0():
    _, pt = get_poly(2, 0)
    res, scale = orthogonality_residuals(pt, 2, 0, 128, js=[1])[1]
    assert abs(res) == 0


def test_orthogonality_sweep():
    # all defining moments vanish to 1e-8 relative for n <= 8
    for nu in ("0.25", "0.5"):
        for n in range(1, 9):
            poly = monic_op(n, nu, 512)
            pt = rescale_to_tilde(poly)
            out = orthogonality_residuals(pt, n, nu, 128)
            with workprec(192):
                for j, (res, scale) in out.items():
                    assert abs(res) <= mpf(10) ** -8 * scale, (nu, n, j)


def test_solver_error_on_unreachable_residual(monkeypatch):
    calls = {"n": 0}

    def fake_solve(n, nu, work):
        calls["n"] += 1
        return ((mpf(0), mpf(1)),) * n, mpf(1), None

    monkeypatch.setattr(moments, "_solve_recurrence", fake_solve)
    monkeypatch.setattr(moments, "PREC_CAP", 512)
    with pytest.raises(SolverError):
        monic_op(2, "0.25", 256)
    assert calls["n"] >= 2  # escalated at least once before giving up


def test_certification_needs_no_escalation(monkeypatch):
    # the fixed-point table holds the 2n + 32 guard bits over a nu sweep,
    # at the lowest precision a caller may ask for too: one run pair per
    # polynomial, so no bits are added silently
    calls = []
    solve = moments._solve_recurrence

    def counting(n, nu, work):
        calls.append((n, nu, work))
        return solve(n, nu, work)

    monkeypatch.setattr(moments, "_solve_recurrence", counting)
    cases = [(n, nu, prec) for n in (16, 64, 200)
             for nu in ("0", "0.000001", "0.37", "0.999999")
             for prec in (64, 256)]
    for n, nu, prec in cases:
        monic_op(n, nu, prec)
    assert calls == [(n, nu, prec + 2 * n + 32) for n, nu, prec in cases]


def test_residual_reads_the_certification_moments(monkeypatch):
    # each certification pass builds one moment sequence per run, at work
    # and work + 64 bits (scale: those plus workprec's guard); the residual
    # table and its normalisation read the deeper run's, so monic_op
    # builds no moments of its own
    passes, built = [], []
    solve, fixed, plain = (moments._solve_recurrence,
                           moments._fixed_moments, moments._moments)

    def counting_solve(n, nu, work):
        passes.append(work + GUARD_BITS)
        return solve(n, nu, work)

    def counting_fixed(count, nu, scale):
        built.append(scale)
        return fixed(count, nu, scale)

    def counting_plain(count, nu):
        built.append(None)
        return plain(count, nu)

    monkeypatch.setattr(moments, "_solve_recurrence", counting_solve)
    monkeypatch.setattr(moments, "_fixed_moments", counting_fixed)
    monkeypatch.setattr(moments, "_moments", counting_plain)
    for n in (16, 64, 200):
        for nu in ("0", "0.000001", "0.37", "0.999999"):
            del passes[:], built[:]
            monic_op(n, nu, 256)
            assert built == [x for w in passes
                             for x in (w, None, w + 64, None)], (n, nu)
