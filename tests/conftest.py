"""Shared fixtures: session-wide polynomial/zero/operator-norm caches so
the expensive recurrence solves, Aberth runs and small-norm integrals
happen once per (n, nu)."""

from __future__ import annotations

from unittest import mock

from mpmath import mp, mpf

from oscq import smallnorm
from oscq.moments import monic_op, rescale_to_tilde
from oscq.mpfun import workprec
from oscq.parametrix import D1Grid
from oscq.zeros import find_zeros

# bound at import: tests may monkeypatch smallnorm.k_norm_bounds to read
# this cache, which must still reach the real computation
_k_norm_bounds = smallnorm.k_norm_bounds
_POLY: dict = {}
_ZEROS: dict = {}
_K_NORMS: dict = {}


def get_poly(n: int, nu, prec: int = 256):
    key = (n, str(nu), prec)
    if key not in _POLY:
        poly = monic_op(n, nu, prec)
        _POLY[key] = (poly, rescale_to_tilde(poly, n))
    return _POLY[key]


def get_tilde(n: int, nu, prec: int = 256):
    return get_poly(n, nu, prec)[1]


def get_zeros(n: int, nu, prec: int = 256, solve_prec: int | None = None):
    key = (n, str(nu), prec, solve_prec)
    if key not in _ZEROS:
        tilde = get_tilde(n, nu, prec)
        _ZEROS[key] = find_zeros(
            tilde, prec=solve_prec or min(tilde.prec, 512))
    return _ZEROS[key]


def get_k_norms(n: int, nu, prec: int = 128):
    return _k_norm_run(n, nu, prec)[0]


def get_k_norm_reads(n: int, nu, prec: int = 128):
    """(D1 grid reads, distinct integrand nodes with chi(y) != 0) counted
    during the cached k_norm_bounds run."""
    return _k_norm_run(n, nu, prec)[1:]


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
        live = sum(1 for y in nodes if chi(y, prec) != 0)
        _K_NORMS[key] = (res, reads[0], live)
    return _K_NORMS[key]


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
