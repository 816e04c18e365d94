"""Shared fixtures: session-wide polynomial/zero/rule/operator-norm caches
so the expensive recurrence solves, Aberth runs, Gauss rules and
small-norm integrals (with the D1 grids they read) happen once per
(n, nu), and the hypothesis profile every property test runs under
(25 derandomized examples, no deadline, no database), with a larger
example budget beside it ("oscq-long", 300 examples), which
`--hypothesis-profile=oscq-long` selects."""

from __future__ import annotations

from unittest import mock

from hypothesis import settings
from mpmath import mp, mpf

from oscq import parametrix, smallnorm
from oscq.moments import monic_op, rescale_to_tilde
from oscq.mpfun import workprec
from oscq.parametrix import D1Grid, d1_grid
from oscq.quadrule import gauss_rule
from oscq.zeros import find_zeros

settings.register_profile("oscq", max_examples=25, deadline=None,
                          derandomize=True, database=None)
settings.register_profile("oscq-long", settings.get_profile("oscq"),
                          max_examples=300)
settings.load_profile("oscq")

# bound at import: tests may monkeypatch smallnorm.k_norm_bounds to read
# this cache, which must still reach the real computation
_k_norm_bounds = smallnorm.k_norm_bounds
_POLY: dict = {}
_ZEROS: dict = {}
_RULES: dict = {}
_K_NORMS: dict = {}


def get_poly(n: int, nu, prec: int = 256):
    key = (n, str(nu), prec)
    if key not in _POLY:
        poly = monic_op(n, nu, prec)
        _POLY[key] = (poly, rescale_to_tilde(poly))
    return _POLY[key]


def get_tilde(n: int, nu, prec: int = 256):
    return get_poly(n, nu, prec)[1]


def get_zeros(n: int, nu, prec: int = 256):
    key = (n, str(nu), prec)
    if key not in _ZEROS:
        _ZEROS[key] = find_zeros(get_tilde(n, nu, prec))
    return _ZEROS[key]


def get_rule(n: int, nu, prec: int = 256):
    key = (n, str(nu), prec)
    if key not in _RULES:
        _RULES[key] = gauss_rule(n, nu, prec)
    return _RULES[key]


def get_k_norms(n: int, nu, prec: int = 128):
    return _k_norm_run(n, nu, prec)[0]


def get_k_norm_reads(n: int, nu, prec: int = 128):
    """(D1 grid reads, distinct integrand nodes with chi(y) != 0) counted
    during the cached k_norm_bounds run."""
    _, reads, live, _ = _k_norm_run(n, nu, prec)
    return reads, len(live)


def get_k_norm_nodes(n: int, nu, prec: int = 128):
    """The distinct integrand nodes y with chi(y) != 0 of the cached
    k_norm_bounds run, sorted."""
    return _k_norm_run(n, nu, prec)[2]


def get_k_norm_grid(n: int, nu, prec: int = 128):
    """The D1 grid the cached k_norm_bounds run read, held here so that a
    test can read it again without a rebuild."""
    return _k_norm_run(n, nu, prec)[3]


def _k_norm_run(n: int, nu, prec: int):
    key = (n, str(nu), prec)
    if key not in _K_NORMS:
        nodes, reads = set(), [0]
        cauchy, quad = D1Grid.cauchy, smallnorm.quad_ts

        def counting_cauchy(self, z):
            reads[0] += 1
            return cauchy(self, z)

        def recording_quad(f, *args, **kwargs):
            def g(y):
                nodes.add(y)
                return f(y)
            return quad(g, *args, **kwargs)

        with mock.patch.object(D1Grid, "cauchy", counting_cauchy), \
                mock.patch.object(smallnorm, "quad_ts", recording_quad):
            res = _k_norm_bounds(n, nu, prec=prec)
        chi = smallnorm.CutoffChi()
        live = tuple(sorted(y for y in nodes if chi(y, prec) != 0))
        _K_NORMS[key] = (res, reads[0], live, d1_grid(n, nu, prec))
    return _K_NORMS[key]


def counting_grid_builds():
    """A patch of parametrix.build_d1_grid that records its calls
    (.call_args_list), for tests that pin how many D1 grids a read
    sequence builds."""
    return mock.patch.object(parametrix, "build_d1_grid",
                             wraps=parametrix.build_d1_grid)


def agrees(a, b, tol, prec: int = 512) -> bool:
    """|a-b| <= tol evaluated away from the ambient context."""
    with workprec(prec):
        return abs(a - b) <= mpf(tol)


def rel_agrees(a, b, tol, prec: int = 512) -> bool:
    with workprec(prec):
        return abs(a - b) <= mpf(tol) * abs(b)


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{name} {'PASS' if ok else 'FAIL'}"
          f"{': ' + detail if detail else ''}")
    return ok


def nstr(x, d: int = 6) -> str:
    return mp.nstr(x, d)
