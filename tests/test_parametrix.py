import gc
import math
import random
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from oscq import equilibrium as eq
from oscq import parametrix as px
from oscq import verify
from oscq.branches import exterior_beta, sqrt_offcut
from oscq.mpfun import (DomainError, besselk_map, man_exp, round_to,
                        to_fixed, workprec)
from oscq.quadrature import QuadratureError
from oscq.smallnorm import EPS_DEFAULT

from conftest import counting_grid_builds, get_k_norm_nodes, get_tilde

PREC = 192
NU = "0.25"


def test_weight_half_integer_closed_form():
    # sqrt(2n) K_(1/2)(n pi x) e^(n pi x) collapses to x^(-1/2)
    with workprec(320):
        x = mpf("0.3")
    got = verify.w_weight(x, 10, "0.5", 256)
    with workprec(320):
        assert abs(got - x ** mpf("-0.5")) <= mpf(2) ** -240


def test_weight_normalization_estimate():
    with workprec(256):
        x = mpf("0.5")
        got = verify.w_weight(x, 100, NU, 256)
        assert abs(got * mp.sqrt(x) - 1) <= 2 / (100 * x)


def test_weight_evenness_and_domain():
    with workprec(256):
        a = verify.w_weight(mpf("-0.4"), 12, NU, 256)
        b = verify.w_weight(mpf("0.4"), 12, NU, 256)
        assert abs(a - b) <= mpf(2) ** -200
    with pytest.raises(DomainError):
        verify.w_weight(mpc(0, 1), 12, NU, 256)


def test_weight_one_sided_limits_conjugate():
    with workprec(256):
        wp = px.w_pm_imag(mpf("0.2"), "+", 16, NU, 256)
        wm = px.w_pm_imag(mpf("0.2"), "-", 16, NU, 256)
        assert abs(wp - mp.conj(wm)) <= mpf(2) ** -200 * abs(wp)


def test_szego_power_trivial_and_limit():
    assert verify.szego_power(mpc(2, 1), 0, PREC) == 1
    with workprec(256):
        lim = verify.szego_power(mpf(10) ** 9, mpf("-0.5"), 256)
        assert abs(lim - mpf(2) ** mpf("0.25")) <= mpf(10) ** -8
        ref = (2 / (2 + mp.sqrt(3))) ** (-mpf(1) / 4)
        assert abs(verify.szego_power(2, mpf("-0.5"), 256) - ref) \
            <= mpf(2) ** -240


def test_d1n_grid_and_adaptive_agree():
    z = mpc(0, "0.6")
    a = px.d1n(z, 12, NU, PREC)
    b = px.d1n(z, 12, NU, PREC, adaptive=True)
    with workprec(256):
        assert abs(a - b) <= mpf(2) ** -44 * abs(a)


def test_d1_grid_cache_bit_identical():
    # the held grid equals a fresh build, field by field (int payload and
    # mpf nu, so the comparison is exact)
    assert px.build_d1_grid(9, NU, 128) == px.d1_grid(9, NU, 128)


def test_d1_grid_cache_keys_on_exact_nu():
    # nu values that agree to 40 digits but differ at 128 bits get two grids
    near = NU + "0" * 40 + "1"
    px.d1_grid(9, NU, 128)
    grid = px.d1_grid(9, near, 128)
    fresh = px.build_d1_grid(9, near, 128)
    assert grid.nu == fresh.nu and grid.wk == fresh.wk
    # and d1n reads that grid rather than building one for a rounded nu
    with counting_grid_builds() as build:
        px.d1n(mpc(0, "0.4"), 9, near, 128)
    assert build.call_count == 0


def test_d1n_off_axis_is_the_engine():
    # off the imaginary axis d1n is the tanh-sinh route, bit for bit, with
    # no grid built; near the cut that route misses its 2^-(prec/4) and
    # raises; and the grid refuses every read off the axis
    z = mpc("0.3", "0.6")
    with counting_grid_builds() as build:
        assert px.d1n(z, 11, NU, 128)._mpc_ \
            == px.d1n(z, 11, NU, 128, adaptive=True)._mpc_
    assert build.call_count == 0
    with pytest.raises(QuadratureError):
        px.d1n(mpc("0.5", "1e-3"), 16, NU, 128)
    grid = px.d1_grid(16, NU, 128)
    for z in (mpc("0.5", "1e-3"), mpc(2), mpc("-0.4", "-0.8"), mpc(0)):
        with pytest.raises(DomainError):
            grid.cauchy(z)


def _per_node_payload(n, nu, prec):
    """(scale, nodes, wk) of the D1 grid formed node by node with
    _k_log_weight, on the build's own nodes and factors, with no log K_nu
    value held from an earlier map."""
    px._log_k_memo.cache_clear()
    nodes, factors = px._grid_nodes(n, prec)
    with workprec(prec, guard=64):
        nu = mpf(nu)
    k = px._k_log_weight(n, nu, prec)
    with workprec(prec):
        wk = [k(t) for t in nodes]
    with workprec(prec, guard=64):
        wk = [v * c for v, c in zip(wk, factors)]
    scale = -min(t._mpf_[2] for t in nodes)
    return (scale, tuple(to_fixed(*man_exp(t), scale) for t in nodes),
            tuple(to_fixed(*man_exp(v), scale) for v in wk))


# one build sequence: n = 32 after 16 reads the held x <= 1 values and
# n = 12 part of them; (32, 0.7) and (32, 0.5) follow a build at another
# nu or prec; the last two nu differ only past 40 digits (as in
# test_d1_grid_cache_keys_on_exact_nu); n = 32, 64, 128 at 128 bits have
# nodes past the asymptotic crossover
D1_PASS_CASES = (
    (16, "0.25", 128), (32, "0.25", 128), (128, "0.999999", 128),
    (12, "0.999999", 128), (2, "0", 128), (3, "0.05", 192),
    (16, "0.7", 128), (5, "0.3", 300), (32, "0.7", 128), (64, "0.99", 128),
    (16, "0.5", 192), (32, "0.5", 128), (9, NU, 128),
    (9, NU + "0" * 40 + "1", 128),
)


def test_d1_grid_pass_is_the_per_node_map():
    for n, nu, prec in D1_PASS_CASES:
        grid = px.build_d1_grid(n, nu, prec)
        assert (grid.scale, grid.nodes, grid.wk) \
            == _per_node_payload(n, nu, prec), (n, nu, prec)


def _grid_xs(n, nu, prec):
    """x_i = n pi t_i of the grid's nodes, as the build forms them."""
    nodes, _ = px._grid_nodes(n, prec)
    _, npi, _ = px._weight_constants(n, nu, prec)
    with workprec(prec):
        return [npi * t for t in nodes]


def test_d1_grid_log_k_memo_scope(monkeypatch):
    # count the K evaluations of each build; nu is one no other test builds
    evaluated = []
    besselk_map = px.besselk_map

    def counted(nu, prec):
        k = besselk_map(nu, prec)

        def f(x):
            evaluated.append(x)
            return k(x)
        return f

    def memo(nu, prec):
        return set(px._log_k_memo(px._weight_constants(2, nu, prec)[0],
                                  prec))

    def build(n, nu, prec):
        evaluated.clear()
        px.build_d1_grid(n, nu, prec)
        small = {x._mpf_ for x in _grid_xs(n, nu, prec) if x <= 1}
        assert small <= memo(nu, prec)
        return small

    def small_evaluated():
        return {x._mpf_ for x in evaluated if x <= 1}

    monkeypatch.setattr(px, "besselk_map", counted)
    nu = "0.618034"
    build(16, nu, 128)
    small = build(32, nu, 128)
    assert not small_evaluated()
    # K is evaluated at the x > 1 nodes outside the Taylor tables' ranges
    # and at the two seeds of the table about 32 pi (K_nu and K_(1-nu));
    # the table about x = 1 is the n = 16 build's
    nu_c, npi, _ = px._weight_constants(32, nu, 128)
    tables = (px._log_k_taylor(mpf(1), nu_c, 128),
              px._log_k_taylor(npi, nu_c, 128))
    assert len(evaluated) == 2 + sum(
        x > 1 and not any(tab.lo < x <= tab.hi for tab in tables)
        for x in _grid_xs(32, nu, 128))
    assert memo(nu, 128) == small
    for other_nu, other_prec in (("0.618035", 128), (nu, 192)):
        build(16, other_nu, other_prec)
        assert build(32, nu, 128) == small_evaluated()
    # n = 12 after 16 evaluates K only at the x <= 1 values n = 16 lacks
    small16 = build(16, nu, 128)
    assert not small_evaluated()
    small12 = build(12, nu, 128)
    assert (len(small12 & small16), len(small12)) == (240, 552)
    assert small_evaluated() == small12 - small16
    # d1n's adaptive route maps at prec + 32 bits, so the next build at
    # prec finds no value held and evaluates every x <= 1 node again
    grid = px.build_d1_grid(16, nu, 128)
    px.d1n(mpc("0.3", "0.6"), 16, nu, 128, adaptive=True)
    evaluated.clear()
    assert px.build_d1_grid(16, nu, 128) == grid
    assert small_evaluated() == small16


@pytest.mark.parametrize("prec", (128, 192, 300))
@pytest.mark.parametrize("n", (2, 16, 64, 128, 200))
def test_k_log_weight_taylor_matches_series(n, prec):
    # at the grid nodes that a Taylor table covers (the clusters at
    # t -> x* from above and t -> 1), log W_n from the log-weight is
    # within 2^-(prec+16) of log K_nu by its series at prec + 96 bits, at
    # the same x = n pi t; tables cut at 2^-prec fail this.  The series
    # runs at the covered nodes nearest each table's ends, where |u| is
    # largest and so is a table's error, and at every 8th between
    nodes, _ = px._grid_nodes(n, prec)
    for nu in ("0", "0.000001", "0.25", "0.5", "0.75", "0.999999"):
        nu_c, npi, _ = px._weight_constants(n, nu, prec)
        k = px._k_log_weight(n, nu, prec)
        series = besselk_map(nu_c, prec + 96)
        covered = 0
        for x0 in (mpf(1), npi):
            table = px._log_k_taylor(x0, nu_c, prec)
            with workprec(prec):
                xts = sorted((npi * t, t) for t in nodes)
                xts = [(x, t) for x, t in xts if table.lo < x <= table.hi]
            covered += len(xts)
            for x, t in xts[:-1:8] + xts[-1:]:
                with workprec(prec):
                    got = k(t)
                with workprec(2 * prec):
                    ref = mp.log(2 * n) / 2 + mp.log(series(x)) + x
                    assert abs(got * mp.sqrt((1 - t) * (1 + t)) - ref) \
                        <= mpf(2) ** -(prec + 16), (n, nu, prec, x)
        assert covered > len(nodes) // 4, (n, nu, prec)


def test_d1n_schwarz_reflection_on_axis_bitwise():
    # the small-norm kernels read D1 once per axis point and take
    # D1(-iy) = conj D1(iy), so the grid sum must honour it to the last bit
    rng = random.Random(4)
    for nu in ("0.25", "0.5"):
        for _ in range(20):
            with workprec(128):
                y = 2 * EPS_DEFAULT * (1 - mpf(rng.random()))  # (0, 2 eps]
                up, down = mpc(0, y), mpc(0, -y)
            a = px.d1n(up, 16, nu, 128)
            b = px.d1n(down, 16, nu, 128)
            with workprec(128):
                assert b._mpc_ == mp.conj(a)._mpc_, (nu, y)


def _cauchy_by_mpc(grid, z):
    """Oracle for D1Grid.cauchy: the unfolded sum over the exact payload
    values in mpc, at a precision that covers the read's own scale."""
    with workprec(2 * grid.read_scale(z) + 64):
        total = mp.zero
        for t, wk in zip(grid.nodes, grid.wk):
            t, wk = mpf((t, -grid.scale)), mpf((wk, -grid.scale))
            total += wk * (1 / (z - t) + 1 / (z + t))
        return total


def _rel_err(got, ref):
    with workprec(512):
        return abs(got - ref) / abs(ref)


# exact binary points: the imaginary axis from 2^-300 to 2, 1e-9 to 1e-3
# off (-1,1), and 1.25 < |z| <= 1e20 in every direction; either half-plane
axis_points = st.floats(-300, 1).map(lambda e: (0.0, 2.0 ** e))
near_cut = st.tuples(st.floats(-0.999, 0.999),
                     st.floats(-9, -3).map(lambda e: 10.0 ** e))
far_points = st.tuples(st.floats(0.1, 20), st.floats(-math.pi, math.pi)).map(
    lambda p: (10 ** p[0] * math.cos(p[1]), 10 ** p[0] * abs(math.sin(p[1]))))


@given(xy=st.one_of(axis_points, near_cut, far_points),
       sign=st.sampled_from((1, -1)))
def test_d1_grid_read_matches_mpc_sum(xy, sign):
    # on the imaginary axis the read is the mpc sum to 2^-prec; off it
    # the grid has no read and refuses the point
    grid = px.d1_grid(16, NU, 128)
    z = mpc(xy[0], sign * xy[1])
    if z.real != 0:
        with pytest.raises(DomainError):
            grid.cauchy(z)
        return
    assert _rel_err(grid.cauchy(z), _cauchy_by_mpc(grid, z)) \
        <= mpf(2) ** -grid.prec


@given(n=st.sampled_from((2, 9, 16, 64, 128)),
       nu=st.integers(0, 999999).map(lambda k: f"{k / 1e6:.6f}"),
       prec=st.sampled_from((128, 192, 300)), e=st.floats(-300, 80))
def test_d1_grid_axis_read_property(n, nu, prec, e):
    # the sum of an axis read at its scale is within 2^-(prec+64) of the
    # mpc sum over every node (cauchy rounds it to prec + 32 bits) at a
    # grid's first read, with the node clusters summed from their
    # moments; and D1(-iy) is conj D1(iy) bit for bit
    grid = px.d1_grid(n, nu, prec)
    z = mpc(0, 2.0 ** e)
    with workprec(prec):
        w = grid.read_scale(z)
        man, exp = man_exp(z.imag)
        a0 = -to_fixed(man * man, 2 * exp, w)      # -y^2, exactly
    ref = _cauchy_by_mpc(grid, z)
    vars(grid).pop("_bulk_arrays", None)    # derived again at this read
    with workprec(2 * w):
        total = 2 * z * grid._axis_sum(a0, w)
    assert _rel_err(total, ref) <= mpf(2) ** -(prec + 64)
    assert grid._bulk_arrays[-1], "no cluster held after the read"
    up, down = px.d1n(z, n, nu, prec), px.d1n(mp.conj(z), n, nu, prec)
    with workprec(prec):
        assert down._mpc_ == mp.conj(up)._mpc_


def test_d1_grid_read_scale_follows_z(monkeypatch):
    # the quad_ts nodes of k_norm_bounds reach y ~ 2^-182; the read scale
    # grows with 1/|y| and with |y|, where a fixed one fails
    grid = px.d1_grid(16, NU, 128)
    with workprec(128):
        tiny, huge = mpc(0, mpf(2) ** -182), mpc(0, mpf(10) ** 30)
    ref = _cauchy_by_mpc(grid, huge)
    assert _rel_err(grid.cauchy(huge), ref) <= mpf(2) ** -grid.prec
    assert _rel_err(grid.cauchy(tiny), _cauchy_by_mpc(grid, tiny)) \
        <= mpf(2) ** -grid.prec
    monkeypatch.setattr(px.D1Grid, "read_scale",
                        lambda self, z: self.prec + 64)
    with pytest.raises(ZeroDivisionError):
        grid.cauchy(tiny)
    assert _rel_err(grid.cauchy(huge), ref) >= 1   # no correct bit left


# the imaginary axis over the range of the k_norm_bounds nodes, from
# 2^-182 to 2 eps = 0.24
small_axis = st.floats(-182, math.log2(0.24)).map(lambda e: 2.0 ** e)


@given(y=small_axis)
def test_d1_grid_axis_read(y):
    # the real sum of the axis branch against the mpc oracle, and
    # Schwarz reflection bit for bit
    grid = px.d1_grid(16, NU, 128)
    up = grid.cauchy(mpc(0, y))
    assert _rel_err(up, _cauchy_by_mpc(grid, mpc(0, y))) \
        <= mpf(2) ** -grid.prec
    down = grid.cauchy(mpc(0, -y))
    with workprec(grid.prec):
        assert down._mpc_ == mp.conj(up)._mpc_


def _axis_sum_per_node(grid, a0, w):
    """D1Grid._axis_sum's integer total with each term formed node by
    node: wk_i << (2w - scale) over a0 - t_i^2, both at scale w."""
    return sum((wk << (2 * w - grid.scale))
               // (a0 - to_fixed(t * t, -2 * grid.scale, w))
               for t, wk in zip(grid.nodes, grid.wk))


def test_d1_grid_axis_sum_is_the_per_node_sum():
    # at every node of AC-8's integrals, the axis sum (from the held
    # arrays at the bulk scale) is the per-node integer sum, and the read
    # is 2z times that sum
    for n in (16, 32):
        grid = px.d1_grid(n, NU, 128)
        nodes = get_k_norm_nodes(n, NU, 128)
        at_bulk = 0
        for y in nodes:
            with workprec(grid.prec):
                z = mpc(0, y)
                w = grid.read_scale(z)
                man, exp = man_exp(z.imag)
                a0 = -to_fixed(man * man, 2 * exp, w)
                per_node = mpf((_axis_sum_per_node(grid, a0, w), -w))
                assert grid._axis_sum(a0, w)._mpf_ == per_node._mpf_, (n, y)
            with workprec(grid.prec, guard=32):
                assert grid.cauchy(z)._mpc_ == (2 * z * per_node)._mpc_, \
                    (n, y)
            at_bulk += w == grid.bulk_scale
        assert at_bulk > len(nodes) // 2, n


def test_d1_grid_holds_the_grids_of_the_last_nu_prec():
    # d1_grid holds every degree served at the last (nu, prec), each grid
    # with the integer arrays it derived at its first read, outside its
    # fields; a re-read after another degree reuses both, and a grid at
    # another (nu, prec) releases them
    px._grids.cache_clear()
    z = mpc(0, "0.1")
    with counting_grid_builds() as build:
        a, b = px.d1_grid(9, NU, 128), px.d1_grid(16, NU, 128)
        assert a.read_scale(z) == a.bulk_scale
        assert "_bulk_arrays" not in vars(a)
        first = a.cauchy(z)
        arrays = a._bulk_arrays
        b.cauchy(z)
        assert px.d1_grid(9, NU, 128) is a
        assert a.cauchy(z)._mpc_ == first._mpc_
        assert a._bulk_arrays is arrays
    assert build.call_count == 2
    fresh = px.build_d1_grid(9, NU, 128)
    assert a == fresh and hash(a) == hash(fresh)
    held = weakref.ref(a)
    del a, b, fresh
    px.d1_grid(9, NU, 192)
    gc.collect()
    assert held() is None


@given(y=small_axis, nu=st.floats(0, 1, exclude_max=True),
       prec=st.sampled_from((128, 192)))
def test_d2_reciprocal_on_axis(y, nu, prec):
    # D2(iy) is a positive real and D2(-iy) = 1/D2(iy), which lets the
    # small-norm kernels take one D2 value per axis point
    up, down = px.d2(mpc(0, y), nu, prec), px.d2(mpc(0, -y), nu, prec)
    with workprec(2 * prec):
        assert up.real > 0 and abs(up.imag) <= mpf(2) ** -prec * up.real
        assert abs(up * down - 1) <= mpf(2) ** -(prec - 4)


def test_d2_mapping_values():
    with workprec(256):
        nu = mpf(NU)
        assert abs(px.d2(mpf(10) ** 9, nu, 256) - 1) <= mpf(10) ** -8
        for sgn in (1, -1):
            ref = mp.exp(-sgn * nu * mp.pi * mpc(0, 1) / 4)
            got = px.d2(sgn * (1 + mpf(10) ** -24), nu, 256)
            assert abs(got - ref) <= mpf(10) ** -10
        # purely imaginary arguments give real values in (0,1) above
        v = px.d2(mpc(0, "0.3"), nu, 256)
        assert abs(mpc(v).imag) <= mpf(2) ** -240
        assert 0 < mpc(v).real < 1


def test_d2_boundary_product():
    with workprec(256):
        nu = mpf(NU)
        h = mpf(2) ** -100
        x = mpf("0.5")
        prod = px.d2(x + h * mpc(0, 1), nu, 256) \
            * px.d2(x - h * mpc(0, 1), nu, 256)
        ref = mp.exp(-nu * mp.pi * mpc(0, 1) / 2)
        assert abs(prod - ref) <= mpf(2) ** -80


def test_d2_psi_quadrant_identity():
    for z in (mpc("0.5", "0.2"), mpc("0.5", "-0.2"), mpc("-0.3", "0.4")):
        assert verify.d2_psi_consistency(z, NU, 256) <= mpf(2) ** -128


def test_n0_matrix_properties():
    with workprec(256):
        m = verify.n0_matrix(mpf(2), 256)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        assert abs(det - 1) <= mpf(2) ** -230
        m = verify.n0_matrix(mpf(10) ** 6, 256)
        assert max(abs(m[0, 0] - 1), abs(m[0, 1])) <= mpf(10) ** -5
        h = mpf(2) ** -80
        x = mpf("0.3")
        np_ = verify.n0_matrix(x + h * mpc(0, 1), 256)
        nm = verify.n0_matrix(x - h * mpc(0, 1), 256)
        jump = nm * mp.matrix([[0, 1], [-1, 0]])
        dev = max(abs(np_[i, j] - jump[i, j])
                  for i in range(2) for j in range(2))
        assert dev <= mpf(2) ** -60


def test_outer_eval_against_polynomial():
    tilde = get_tilde(16, NU)
    pred = px.outer_eval(mpc(0, 2), 16, NU, 256)
    with workprec(256):
        actual = tilde.eval(mpc(0, 2), tilde.prec)
        ratio = abs(actual / pred.value - 1)
        assert ratio <= pred.error_scale  # observed C is well below 1


def test_outer_eval_nu_zero_drops_phase_factor():
    # the phase Szego factor is identically 1 at nu=0
    assert px.d2(mpc(0, 2), 0, PREC) == 1
    a = px.outer_eval(mpc(0, 2), 8, 0, 192)
    with workprec(256):
        g = eq.g_fn(mpc(0, 2), 192)
        b = exterior_beta(mpc(0, 2) + sqrt_offcut(mpc(0, 2)))
        manual = mp.exp(8 * g) * mpf(2) ** mpf("0.25") * (b + 1 / b) / 2 \
            * verify.szego_power(mpc(0, 2), mpf("0.5"), 192)
        assert abs(a.value - manual) <= mpf(2) ** -40 * abs(manual)


def test_outer_prefactor_tends_to_one():
    with workprec(256):
        z = mpf(10) ** 8
        pred = px.outer_eval(z, 4, NU, 192)
        g = eq.g_fn(z, 192)
        assert abs(pred.value / mp.exp(4 * g) - 1) <= mpf(10) ** -7


def test_outer_domain_guard():
    with pytest.raises(DomainError):
        px.outer_eval(mpf("0.5"), 8, NU, 192)


def _boundary_points(prec: int, count: int = 48):
    """Exact prec-bit points at seeded offsets 2^-(prec-40)..2^-(prec-8)
    on either side of dist(z, [-1,1]) = 0.2, along its straight parts
    and its arcs about +-1, with their distance at 4 prec bits."""
    rng = random.Random(f"outer-boundary:{prec}")
    out = []
    with workprec(4 * prec):
        for _ in range(count):
            r = mpf("0.2") + rng.choice((-1, 1)) * mpf(2) ** -rng.uniform(
                prec - 40, prec - 8)
            if rng.random() < 0.5:
                z = mpc(rng.uniform(-0.99, 0.99), rng.choice((-1, 1)) * r)
            else:
                z = rng.choice((-1, 1)) * (1 + r * mp.expj(
                    rng.uniform(-1.5, 1.5)))
            z = round_to(z, prec)
            gap = max(abs(z.real) - 1, 0)
            out.append((z, mp.sqrt(gap * gap + z.imag * z.imag)))
    return out


@pytest.mark.parametrize("prec", (64, 128, 256))
def test_outer_domain_verdict_off_the_boundary(prec):
    # outer_eval compares the squared distance with 0.2^2 at its own
    # precision: at points farther than 2^-(prec-8) from dist = 0.2 its
    # verdict is the exact one
    checked = 0
    for z, dist in _boundary_points(prec):
        with workprec(4 * prec):
            if abs(dist - mpf("0.2")) <= mpf(2) ** -(prec - 8):
                continue
            inside = dist < mpf("0.2")
        if inside:
            with pytest.raises(DomainError):
                px.outer_eval(z, 4, NU, prec)
        else:
            px.outer_eval(z, 4, NU, prec)
        checked += 1
    assert checked >= 40


def test_outer_ratio_error_decreasing_in_n():
    # the measured outer-formula error should shrink with n (one violation
    # allowed: the order constant is unknown)
    z = mpc(0, 2)
    ratios = []
    for n in (8, 16, 32, 64):
        tilde = get_tilde(n, NU)
        pred = px.outer_eval(z, n, NU, 256)
        with workprec(320):
            ratios.append(abs(tilde.eval(z, tilde.prec) / pred.value - 1))
    violations = sum(1 for a, b in zip(ratios, ratios[1:]) if b >= a)
    assert violations <= 1, [str(r) for r in ratios]


def test_inner_nu0_bracket_is_cosine():
    with workprec(256):
        x, n = mpf("0.5"), 12
        pref, tp, tm = px.inner_terms(x, n, 0, 256)
        th = eq.theta_n(x, n, 256)
        bracket = tp + tm
        assert abs(mpc(bracket).imag) <= mpf(2) ** -60
        assert abs(bracket - 2 * mp.cos(th)) <= mpf(2) ** -56


def test_inner_zero_line_balance():
    # on the predicted zero line the two oscillatory terms have equal
    # modulus up to O(1/n)
    with workprec(256):
        n = 32
        nu = mpf(NU)
        z = mpf("0.5") - mpc(0, 1) * nu / (2 * n)
        _, tp, tm = px.inner_terms(z, n, nu, 256)
        assert abs(abs(tp / tm) - 1) <= mpf(10) / n


def test_inner_matches_polynomial():
    tilde = get_tilde(16, NU)
    x = mpf("0.5")
    pred = px.inner_eval(x, 16, NU, 256)
    with workprec(256):
        actual = tilde.eval(x, tilde.prec)
        assert abs(actual - pred.value) <= \
            abs(pred.value) * pred.error_scale * 3


def test_inner_reflection_even_degree():
    z = mpc("0.4", "-0.05")
    a = px.inner_eval(-mp.conj(z), 16, NU, 256)
    b = px.inner_eval(z, 16, NU, 256)
    with workprec(256):
        assert abs(a.value - mp.conj(b.value)) <= \
            mpf(2) ** -40 * abs(b.value)


def test_outer_reflection_even_degree():
    z = mpc("1.2", "0.9")
    a = px.outer_eval(-mp.conj(z), 16, NU, 256)
    b = px.outer_eval(z, 16, NU, 256)
    with workprec(256):
        assert abs(a.value - mp.conj(b.value)) <= \
            mpf(2) ** -40 * abs(b.value)


def _outer_domain(xy):
    """dist(z, [-1,1]) >= 0.2 and |z| <= 3, the benchmark's outer domain."""
    x, y = xy
    return math.hypot(max(abs(x) - 1, 0), y) >= 0.2 and math.hypot(x, y) <= 3


def _inner_right_half(xy):
    """Outside the 0.2-disks at 0 and 1: with 0.2 <= x <= 1 and
    |y| <= 0.1, the right half of the benchmark's inner domain."""
    x, y = xy
    return min(math.hypot(x, y), math.hypot(x - 1, y)) >= 0.2


def _seeded_domain_points(regime: str, count: int = 8):
    """Exact binary points with Re z != 0 in the regime's validated
    domain, half of them with Re z < 0: the outer domain, or |Im z| <= 0.1
    and |Re z| in [0.25, 0.75] (inner)."""
    rng = random.Random(f"reflection:{regime}")
    out = []
    while len(out) < count:
        if regime == "outer":
            x, y = rng.uniform(-3, 3), rng.uniform(-3, 3)
        else:
            x, y = rng.uniform(0.25, 0.75), rng.uniform(-0.1, 0.1)
        if x != 0 and (regime == "inner" or _outer_domain((x, y))):
            out.append(mpc(abs(x) if len(out) % 2 else -abs(x), y))
    return out


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("regime", ["outer", "inner"])
def test_reflection_is_bit_exact(regime, n):
    # P~_n(-conj z) = (-1)^n conj P~_n(z): both evaluators reduce to
    # Re z >= 0 and reflect the value, so the symmetry holds bit for bit
    evaluate = px.outer_eval if regime == "outer" else px.inner_eval
    for z in _seeded_domain_points(regime):
        a = evaluate(-mp.conj(z), n, NU, 256).value
        b = evaluate(z, n, NU, 256).value
        with workprec(256):
            ref = mp.conj(b) * (-1) ** n
        assert a._mpc_ == ref._mpc_, (regime, n, z)


outer_points = st.tuples(st.floats(-3, 3), st.floats(-3, 3)).filter(
    _outer_domain)
inner_points = st.tuples(st.floats(0.2, 1), st.floats(-0.1, 0.1)).filter(
    _inner_right_half)


@given(outer=outer_points, inner=inner_points,
       nu=st.floats(0, 1, exclude_max=True), n=st.integers(2, 64),
       prec=st.sampled_from((128, 256)))
def test_asymptotic_values_keep_the_working_precision(outer, inner, nu, n,
                                                      prec):
    # one rounding per value: outer_eval and each inner term lie within
    # 2^-(prec-2) relative of the same call at prec + 128
    got = [px.outer_eval(mpc(*outer), n, nu, prec).value,
           *px.inner_terms(mpc(*inner), n, nu, prec)]
    ref = [px.outer_eval(mpc(*outer), n, nu, prec + 128).value,
           *px.inner_terms(mpc(*inner), n, nu, prec + 128)]
    for name, a, b in zip(("outer", "prefactor", "t_plus", "t_minus"),
                          got, ref):
        assert _rel_err(a, b) <= mpf(2) ** (2 - prec), (name, prec)


def test_inner_domain_guards():
    for bad in (mpf("0.15"), mpc("0.5", "0.3"), mpf("0.95"), mpf("1.5")):
        with pytest.raises(DomainError):
            px.inner_eval(bad, 16, NU, 192)


def test_error_scale_decreasing():
    with workprec(128):
        outer = [px.outer_eval(mpc(0, 2), n, NU, 128).error_scale
                 for n in (8, 16, 32)]
        assert outer[0] > outer[1] > outer[2]
        inner = [px.inner_eval(mpf("0.5"), n, NU, 128).error_scale
                 for n in (8, 16, 32)]
        assert inner[0] > inner[1] > inner[2]


def test_zero_condition_defect_off_line():
    # no zeros with Im z >= 0: the defect is bounded away from 0 there
    with workprec(192):
        for k in range(10):
            x = mpf("0.25") + mpf("0.5") * k / 9
            d = verify.zero_condition_defect(mpc(x, "0.05"), 16, NU, 192)
            assert d >= mpf("0.1"), (k, mp.nstr(d, 6))


def test_zero_condition_defect_nu0_real():
    assert verify.zero_condition_defect(mpf("0.5"), 16, 0, 192) \
        <= mpf(2) ** -60


def test_zero_condition_defect_at_computed_zeros():
    # at true zeros inside the validated box the defect obeys one global
    # constant times the master scale; fit at n=16, assert with slack 3
    from conftest import get_zeros

    def worst_ratio(n):
        zs = get_zeros(n, NU)
        with workprec(256):
            delta = mpf("0.2")
            eps = eq.epsilon_n(n, NU, 256)
            worst = mpf(0)
            used = 0
            for w in zs.roots:
                if abs(w) < delta or abs(w - 1) < delta \
                        or abs(w + 1) < delta or abs(w.imag) > mpf("0.1"):
                    continue
                worst = max(worst,
                            verify.zero_condition_defect(w, n, NU, 192) / eps)
                used += 1
            assert used > 0
            return worst

    c16 = worst_ratio(16)
    for n in (32, 64):
        assert worst_ratio(n) <= 3 * c16, n


def test_suite_parametrix_all_pass():
    # its grid reads build five grids, each once: n = 20 at nu = 1/2, then
    # n = 25, 50, 100 and 200 at nu = 1/4, all at 192 bits
    px._grids.cache_clear()
    with counting_grid_builds() as build:
        records = verify.suite_parametrix(prec=192)
    assert [(c.args[0], c.args[2]) for c in build.call_args_list] \
        == [(20, 192), (25, 192), (50, 192), (100, 192), (200, 192)]
    failures = [r for r in records if not r.passed]
    assert not failures, failures
