import pytest
from mpmath import mp, mpc, mpf

from oscq import verify
from oscq.moments import moment, moment_sequence
from oscq.mpfun import workprec
from oscq.quadrule import _exactness_report, apply_rule, gauss_rule
from oscq.zeros import gauss_int, root_scale

from conftest import get_poly, get_rule, get_zeros
from test_recurrence_props import _christoffel_weights

EXACT = mpf(10) ** (-mpf("0.15") * 256)   # AC-2's bound at 256 bits


def test_one_point_rule():
    rule = gauss_rule(1, "0.5", 192)
    with workprec(256):
        m1 = moment(1, "0.5", 256)
        assert abs(rule.nodes[0] - m1) <= mpf(2) ** -120
        assert abs(rule.weights[0] - 1) <= mpf(2) ** -120


def test_two_point_rule_nu0_hand_solved():
    rule = gauss_rule(2, 0, 192)
    with workprec(256):
        nodes = sorted(rule.nodes, key=lambda z: mpc(z).imag)
        assert abs(nodes[0] + mpc(0, 1)) <= mpf(2) ** -90
        assert abs(nodes[1] - mpc(0, 1)) <= mpf(2) ** -90
        for w in rule.weights:
            assert abs(w - mpf(1) / 2) <= mpf(2) ** -90
        # full Gaussian exactness through degree 3
        assert rule.exactness_report <= mpf(10) ** (-mpf("0.15") * 192)


def test_apply_rule_moments():
    rule = gauss_rule(2, 0, 192)
    with workprec(256):
        assert abs(apply_rule(rule, lambda x: mpf(1)) - 1) <= mpf(2) ** -90
        assert abs(apply_rule(rule, lambda x: x * x) + 1) <= mpf(2) ** -90
        # beyond the exactness degree the defect is macroscopic
        beyond = abs(apply_rule(rule, lambda x: x ** 4)
                     - moment(4, 0, 256))
        assert beyond > mpf(10) ** -5


def test_exactness_sweep_moderate():
    with workprec(256):
        for nu in ("0", "0.25", "0.5"):
            for n in (3, 6):
                rule = gauss_rule(n, nu, 256)
                assert rule.exactness_report <= \
                    mpf(10) ** (-mpf("0.15") * 256), (nu, n)


def test_node_symmetry_and_weight_conjugation():
    rule = gauss_rule(5, "0.25", 192)
    with workprec(rule.prec):
        for x, w in zip(rule.nodes, rule.weights):
            # raw-frame nodes of a real polynomial close under conjugation
            k = min(range(5), key=lambda j: abs(mp.conj(x) - rule.nodes[j]))
            assert abs(mp.conj(x) - rule.nodes[k]) <= mpf(2) ** -60
            assert abs(mp.conj(w) - rule.weights[k]) <= mpf(2) ** -60
        assert abs(mp.fsum(rule.weights) - 1) <= mpf(2) ** -60


def test_suite_quadrature_all_pass():
    records = verify.suite_quadrature(prec=256, n_list=[1, 2, 3, 4])
    failures = [r for r in records if not r.passed]
    assert not failures, failures


def _raw_frame_report(n, nu, weights, roots, prec):
    """Oracle: the exactness report by raw-frame running products
    w_k x_k^j, x_k = i n pi w_k from the exact rescaled roots, each sum an
    mpf fsum at 2 prec."""
    ms = moment_sequence(2 * n - 1, nu, 2 * prec)
    with workprec(2 * prec):
        nodes = [mpc(0, 1) * n * mp.pi * w for w in roots]
        defect, terms = mpf(0), list(weights)
        for m in ms:
            defect = max(defect, abs(mp.fsum(terms) - m))
            terms = [t * x for t, x in zip(terms, nodes)]
        return defect / max(abs(m) for m in ms)


@pytest.mark.parametrize("nu", ["0", "0.999"])
@pytest.mark.parametrize("n", [1, 2, 16, 32, 64])
def test_exactness_report_matches_raw_frame_oracle(n, nu):
    rule = get_rule(n, nu)
    ref = _raw_frame_report(n, nu, rule.weights, get_zeros(n, nu).roots,
                            rule.prec)
    with workprec(2 * rule.prec):
        assert abs(rule.exactness_report - ref) <= \
            max(ref * mpf(2) ** -32, mpf(2) ** (-2 * rule.prec))


@pytest.mark.parametrize("nu", ["0", "0.999"])
@pytest.mark.parametrize("n", [1, 2, 16, 32, 64])
def test_exactness_report_sees_a_weight_off_by_2_to_the_minus_64(n, nu):
    # the weight of the largest term w_k x_k^(2n-1): the report is relative
    # to max|m_j| (3.8e31 at n = 16), so from n = 12 on the weight largest
    # in modulus, near the origin, moves it by less than 10^(-0.15 prec)
    rule = get_rule(n, nu)
    scale = root_scale(rule.prec)
    roots = [gauss_int(w, scale) for w in get_zeros(n, nu).roots]
    with workprec(rule.prec, guard=64):
        k = max(range(n), key=lambda i: abs(rule.weights[i])
                * max(1, abs(rule.nodes[i])) ** (2 * n - 1))
        weights = list(rule.weights)
        weights[k] *= 1 + mpf(2) ** -64
    assert _exactness_report(roots, scale, rule.weights, nu, rule.prec)[0] \
        == rule.exactness_report <= EXACT
    assert _exactness_report(roots, scale, weights, nu, rule.prec)[0] > EXACT


@pytest.mark.parametrize("nu", ["0", "0.25", "0.999"])
@pytest.mark.parametrize("n", [32, 64])
def test_large_rules_are_exact_with_unit_mass_and_conjugate_pairs(n, nu):
    rule = get_rule(n, nu)
    tol = mpf(2) ** -128
    assert rule.exactness_report <= EXACT
    with workprec(2 * rule.prec):
        assert abs(mp.fsum(rule.weights) - 1) <= tol
        for x, w in zip(rule.nodes, rule.weights):
            k = min(range(n), key=lambda j: abs(mp.conj(x) - rule.nodes[j]))
            assert abs(mp.conj(x) - rule.nodes[k]) <= tol * max(1, abs(x))
            assert abs(mp.conj(w) - rule.weights[k]) <= tol * max(1, abs(w))


def _raw_frame_per_degree(n, nu, weights, roots, prec):
    """Oracle: max_j |sum_k w_k x_k^j - m_j| / sum_k |w_k x_k^j| by
    raw-frame running products at 2 prec."""
    ms = moment_sequence(2 * n - 1, nu, 2 * prec)
    with workprec(2 * prec):
        nodes = [mpc(0, 1) * n * mp.pi * w for w in roots]
        worst, terms = mpf(0), list(weights)
        for m in ms:
            defect = abs(mp.fsum(terms) - m)
            if defect:      # 0 / 0 at the node 0 of n = 1, nu = 0
                worst = max(worst, defect / mp.fsum(abs(t) for t in terms))
            terms = [t * x for t, x in zip(terms, nodes)]
        return worst


@pytest.mark.parametrize("nu", ["0", "0.999"])
@pytest.mark.parametrize("n", [1, 2, 16, 32, 64])
def test_per_degree_report_matches_raw_frame_oracle(n, nu):
    rule = get_rule(n, nu)
    ref = _raw_frame_per_degree(n, nu, rule.weights, get_zeros(n, nu).roots,
                                rule.prec)
    assert rule.exactness_per_degree <= EXACT
    with workprec(2 * rule.prec):
        assert abs(rule.exactness_per_degree - ref) <= \
            max(ref * mpf(2) ** -32, mpf(2) ** (-2 * rule.prec))


@pytest.mark.parametrize("nu", ["0", "0.999"])
@pytest.mark.parametrize("n", [16, 64])
def test_per_degree_report_sees_the_largest_weight_off_by_2_to_the_minus_64(
        n, nu):
    # the weight largest in modulus sits near the origin, so its error is
    # small against max|m_j| and passes AC-2's report, but not against
    # sum_k |w_k| at degree 0
    rule = get_rule(n, nu)
    scale = root_scale(rule.prec)
    roots = [gauss_int(w, scale) for w in get_zeros(n, nu).roots]
    with workprec(rule.prec, guard=64):
        k = max(range(n), key=lambda i: abs(rule.weights[i]))
        weights = list(rule.weights)
        weights[k] *= 1 + mpf(2) ** -64
    report, per_degree = _exactness_report(roots, scale, weights, nu,
                                           rule.prec)
    assert report <= EXACT < per_degree


@pytest.mark.parametrize("n, nu, mirrored", [(32, "0.25", 16),
                                              (64, "0.25", 32),
                                              (32, "0.999", 15),
                                              (64, "0.999", 31)])
def test_mirrored_weights_are_exact_conjugates(n, nu, mirrored):
    # a node held as the mirror image of its partner takes the conjugate
    # of the partner's weight, and the two axis nodes at nu = 0.999 get
    # their own; every weight still matches the mpc Christoffel sum
    rule, zs = get_rule(n, nu), get_zeros(n, nu)
    assert zs.mirrored == mirrored
    ref = _christoffel_weights(rule.nodes, get_poly(n, nu)[0].recurrence,
                               2 * rule.prec)
    with workprec(2 * rule.prec):
        for k, j in enumerate(zs.mirror_of):
            if j is not None:
                assert rule.weights[k] == mp.conj(rule.weights[j])
        for w, v in zip(rule.weights, ref):
            assert abs(w - v) <= mpf(2) ** (16 - rule.prec) * abs(v)
