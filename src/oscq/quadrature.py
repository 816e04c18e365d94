"""Double-exponential (tanh-sinh) quadrature on finite segments.

One engine for every integral in the package: handles endpoint singularities
(inverse square roots, logarithms) without special-casing, provided the
integration range is split so that singular points are segment endpoints.
Levels halve the mesh; previously computed nodes are reused.

Nodes are mapped as offsets from the nearest endpoint, so integrands that
blow up at an endpoint are never evaluated exactly there.  The requested
`target` should stay above ~2**(-prec/2); pass a larger prec for deeper
targets.
"""

from __future__ import annotations

from functools import lru_cache

from mpmath import mp, mpf

from .mpfun import workprec

MIN_LEVEL = 3   # levels every segment runs before it may stop
MAX_LEVEL = 10  # deepest level; a segment still short of its goal fails


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested accuracy."""

    def __init__(self, msg, value=None, err=None):
        super().__init__(msg)
        self.value = value
        self.err = err


@lru_cache(maxsize=None)
def _nodes_new(level: int, prec: int):
    """Nodes introduced at `level` (odd multiples of h=2^-level; all j at
    level 0) as tuples (offset, w), offset = (1 - |x|)/2 in (0, 1/2] kept to
    full relative accuracy near the endpoints (see segment_nodes); the
    level-0 centre comes first, as (1/2, w0)."""
    with workprec(prec, guard=16):
        h = mpf(2) ** (-level)
        # truncation supports integrands up to ~d^(-3/4); tail ~ 2^-(prec+48)/4
        umax = (prec + 48) * mp.ln(2) / 2
        out = []
        if level == 0:
            out.append((mpf(1) / 2, mp.pi / 2))
            j, step = 1, 1
        else:
            j, step = 1, 2
        while True:
            t = j * h
            u = mp.pi / 2 * mp.sinh(t)
            if u > umax:
                break
            e2u = mp.exp(-2 * u)
            offset = e2u / (1 + e2u)          # (1-x)/2 for the t>0 node
            w = mp.pi / 2 * mp.cosh(t) / mp.cosh(u) ** 2
            out.append((offset, w))
            j += step
        return tuple(out)


def segment_nodes(a, b, level: int, prec: int):
    """Nodes new at `level` on [a, b] with their weights, as pairs (w, ts):
    ts is the level-0 centre (a + width/2,) or the mirrored pair
    (a + width*offset, b - width*offset).  The weights carry neither the
    mesh h nor the width/2 Jacobian."""
    width = b - a
    for offset, w in _nodes_new(level, prec):
        if level == 0 and offset == mpf(1) / 2:
            yield w, (a + width / 2,)
        else:
            d = width * offset
            yield w, (a + d, b - d)


def _segment_sum(f, a, b, level: int, prec: int):
    """Raw weighted sum of new nodes at `level` over segment [a, b]."""
    total = mp.zero
    for w, ts in segment_nodes(a, b, level, prec):
        v = f(ts[0])
        if len(ts) == 2:
            v = v + f(ts[1])
        total += w * v
    return total * (b - a) / 2


def quad_ts(f, points, prec: int, target=None, raise_on_fail: bool = True):
    """Integrate f over the segments defined by consecutive `points`.

    target: absolute-or-relative error goal (default 2**(-prec/4)).  Each
    segment runs at least MIN_LEVEL levels and at most MAX_LEVEL.  Returns
    (value, err_estimate); raises QuadratureError when the goal is missed
    unless raise_on_fail=False.
    """
    if target is None:
        target = mpf(2) ** (-(prec // 4))
    segments = [(a, b) for a, b in zip(points[:-1], points[1:]) if a != b]
    with workprec(prec, guard=64):
        value = mp.zero
        err = mp.zero
        seg_target = mpf(target) / max(1, len(segments))
        for a, b in segments:
            a, b = mp.mpmathify(a), mp.mpmathify(b)
            raw = _segment_sum(f, a, b, 0, prec)
            prev = raw  # level-0 estimate, h=1
            seg_err = mp.inf
            for level in range(1, MAX_LEVEL + 1):
                raw += _segment_sum(f, a, b, level, prec)
                est = raw * mpf(2) ** (-level)
                seg_err = abs(est - prev)
                prev = est
                if level >= MIN_LEVEL and seg_err <= seg_target * max(1, abs(est)):
                    break
            value += prev
            err += seg_err
    if err > target * max(1, abs(value)) and raise_on_fail:
        raise QuadratureError(
            f"tanh-sinh did not converge: err~{mp.nstr(err, 8)} "
            f"target {mp.nstr(mpf(target), 8)}", value=value, err=err)
    return value, err
