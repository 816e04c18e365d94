"""Property tests of the recurrence core over nu in [0, 1): exact moments,
the fixed-point Chebyshev table and its residual, polynomial values and
derivatives, Gauss weights, conjugate symmetry and Hankel determinants,
each against an independent route."""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from oscq.moments import (_certified_recurrence, hankel_det, moment_sequence,
                          monic_op)
from oscq.mpfun import workprec

from conftest import get_poly, get_rule, get_tilde
from test_moments import (_bareiss_det, _chebyshev, _coefficients,
                          _power_residual)

PREC = 256
TOL = mpf(2) ** (-(PREC // 2))

# nu on the 1e-6 grid, as decimal strings like the CLI takes them
nus = st.floats(0, 0.999999).map(lambda x: f"{x:.6f}")
# the caller's precision: every certificate holds at the bits it asked for
precs = st.sampled_from([64, 96, 128, 256])


def _vandermonde_weights(nodes, nu, prec):
    """Oracle: solve sum_k w_k x_k^j = m_j, j < n, by LU with pivoting."""
    n = len(nodes)
    ms = moment_sequence(n - 1, nu, prec)
    with workprec(prec):
        a = mp.matrix([[x ** j for x in nodes] for j in range(n)])
        w = mp.lu_solve(a, mp.matrix(list(ms)))
        return [w[k] for k in range(n)]


def _christoffel_weights(nodes, recurrence, prec):
    """Oracle: the Christoffel numbers 1 / sum_{j<n} P_j(x_k)^2 / h_j,
    h_j = b_0 ... b_j, by the raw recurrence in mpc."""
    out = []
    with workprec(prec):
        for x in nodes:
            p_prev, p, h, s = 0, mpf(1), mpf(1), 0
            for a, b in recurrence:
                h *= b
                s += p * p / h
                p_prev, p = p, (x - a) * p - b * p_prev
            out.append(1 / s)
    return out


@given(nu=nus)
def test_moment_recurrence_matches_gamma_ratio(nu):
    got = moment_sequence(41, nu, PREC)
    with workprec(2 * PREC):
        x = mpf(nu)
        for j in range(42):
            ref = mpf(2) ** j * mp.gamma((1 + x + j) / 2) \
                * mp.rgamma((1 + x - j) / 2)
            assert abs(got[j] - ref) <= mpf(2) ** (16 - PREC) * abs(ref), j


def _assert_table_matches_oracles(n, nu, prec):
    """The certified pairs agree with the mpf Chebyshev algorithm run 64
    bits deeper, in the certification's gap norm, to 2^-prec; monic_op
    keeps prec, and its residual is below 2^-(prec/4) and the power-basis
    one of the same pairs within a factor 2."""
    rec, work, _ = _certified_recurrence(n, nu, prec)
    ref = _chebyshev(n, nu, work + 64)
    with workprec(work + 64):
        gap = max(max(abs(b - b2) / abs(b2),
                      abs(a - a2) / (abs(a2) + mp.sqrt(abs(b2))))
                  for (a, b), (a2, b2) in zip(rec, ref))
    assert gap <= mpf(2) ** -prec
    p = monic_op(n, nu, prec)
    assert p.recurrence == rec and p.prec == prec
    assert p.residual <= mpf(2) ** -(prec // 4)
    ref_res = _power_residual(rec, nu, 2 * work)
    assert ref_res / 2 <= p.residual <= 2 * ref_res


@given(n=st.integers(1, 64), nu=nus, prec=precs)
def test_fixed_point_table_matches_mpf_oracle(n, nu, prec):
    _assert_table_matches_oracles(n, nu, prec)


@pytest.mark.parametrize("nu", ["0", "0.000001"])
@pytest.mark.parametrize("n", [1, 2, 3, 200])
def test_fixed_point_table_at_small_nu(n, nu):
    # nu = 0: the odd moments vanish; the odd diagonals' scales start at 1
    _assert_table_matches_oracles(n, nu, PREC)


@given(n=st.integers(1, 24), nu=nus, x=st.floats(-1.5, 1.5),
       y=st.floats(-0.5, 0.5))
def test_eval_with_deriv_matches_horner(n, nu, x, y):
    pt = get_tilde(n, nu)
    val, der = pt.eval_with_deriv(mpc(x, y), pt.prec)
    with workprec(2 * pt.prec):
        z = mpc(x, y)
        ref, dref = mpc(1), mpc(0)
        for c in reversed(_coefficients(pt.recurrence)):
            ref, dref = ref * z + c, dref * z + ref
        assert abs(val - ref) <= mpf(2) ** (-pt.prec + 32) * max(1, abs(ref))
        assert abs(der - dref) <= \
            mpf(2) ** (-pt.prec + 32) * max(1, abs(dref))


@given(n=st.integers(1, 12), nu=nus, prec=precs)
def test_christoffel_weights_match_vandermonde(n, nu, prec):
    r = get_rule(n, nu, prec)
    ref = _vandermonde_weights(r.nodes, nu, 4 * prec)
    with workprec(4 * prec):
        scale = max(abs(w) for w in ref)
        for w, v in zip(r.weights, ref):
            assert abs(w - v) <= mpf(2) ** -(prec // 2) * scale


@given(n=st.integers(1, 24), nu=nus, prec=precs)
def test_christoffel_darboux_weights_match_christoffel_sum(n, nu, prec):
    # at the rule's own precision: both exactness reports within AC-2's
    # bound and every weight the mpc Christoffel sum's
    r = get_rule(n, nu, prec)
    assert r.prec == prec
    assert max(r.exactness_report, r.exactness_per_degree) <= \
        mpf(10) ** (-mpf("0.15") * prec)
    ref = _christoffel_weights(r.nodes, get_poly(n, nu, prec)[0].recurrence,
                               2 * prec)
    with workprec(2 * prec):
        for w, v in zip(r.weights, ref):
            assert abs(w - v) <= mpf(2) ** (16 - prec) * abs(v)


@given(n=st.integers(1, 12), nu=nus, prec=precs)
def test_weights_sum_to_one(n, nu, prec):
    with workprec(2 * prec):
        assert abs(mp.fsum(get_rule(n, nu, prec).weights) - 1) <= \
            mpf(2) ** -(prec // 2)


@given(n=st.integers(1, 12), nu=nus, prec=precs)
def test_nodes_and_weights_close_under_conjugation(n, nu, prec):
    r, tol = get_rule(n, nu, prec), mpf(2) ** -(prec // 2)
    with workprec(2 * prec):
        for x, w in zip(r.nodes, r.weights):
            k = min(range(n), key=lambda j: abs(mp.conj(x) - r.nodes[j]))
            assert abs(mp.conj(x) - r.nodes[k]) <= tol * max(1, abs(x))
            assert abs(mp.conj(w) - r.weights[k]) <= tol * max(1, abs(w))


@given(n=st.integers(1, 8), nu=nus)
def test_hankel_det_matches_bareiss(n, nu):
    got = hankel_det(n, nu, PREC)
    ms = moment_sequence(2 * n - 2, nu, 4 * PREC)
    mat = [[ms[i + j] for j in range(n)] for i in range(n)]
    ref = _bareiss_det(mat, n, 4 * PREC)
    with workprec(4 * PREC):
        assert abs(got - ref) <= TOL * abs(ref)
