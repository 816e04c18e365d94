"""Span tracing of oscq's layers, applied from outside the package.

`Tracer.patched()` rebinds the public functions of each layer module to
wrappers that record a span per call (name, start, end, parent).  Several
oscq modules import functions by name, so every `oscq.*` module attribute
that is the same function object is rebound, not only the defining one.
Class methods are patched on the class and mpmath's Bessel functions on the
shared `mp` context, because the package calls those directly.  Spans stay
in memory; `Tracer.dump` writes them out once the run is over.

Spans are timed by the clock the tracer is given: the benchmark passes its
CPU clock, which leaves out the time spent sampling the machine's speed.
Self time of a span is its duration minus the time its child spans cover.
A call whose parent span carries the same name (recursion, or mpmath's
bessely calling besselj) is folded into the parent span.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import oscq.moments
from mpmath import mp

LAYERS = ("mpfun", "quadrature", "moments", "zeros", "quadrule",
          "equilibrium", "parametrix", "smallnorm", "verify", "cli")

# (module, attribute, span name); the span name's first part is the layer
FUNCTIONS = (
    ("mpfun", "gamma_fn", "mpfun.gamma"),
    ("mpfun", "recip_gamma", "mpfun.gamma"),
    ("quadrature", "quad_ts", "quadrature.quad_ts"),
    ("moments", "monic_op", "moments.monic_op"),
    ("moments", "hankel_det", "moments.hankel_det"),
    ("moments", "moment", "moments.moment"),
    ("moments", "rescale_to_tilde", "moments.rescale_to_tilde"),
    ("zeros", "find_zeros", "zeros.find_zeros"),
    ("zeros", "zero_line_stats", "zeros.zero_line_stats"),
    ("quadrule", "gauss_rule", "quadrule.gauss_rule"),
    ("equilibrium", "g_fn", "equilibrium.g_fn"),
    ("equilibrium", "theta_n", "equilibrium.theta_n"),
    ("equilibrium", "psi_real", "equilibrium.psi"),
    ("equilibrium", "psi_complex", "equilibrium.psi"),
    ("equilibrium", "epsilon_n", "equilibrium.epsilon_n"),
    ("equilibrium", "re_phi_imag_axis", "equilibrium.re_phi_imag_axis"),
    ("parametrix", "build_d1_grid", "parametrix.grid_build"),
    ("parametrix", "d1n", "parametrix.d1n"),
    ("parametrix", "d2", "parametrix.d2"),
    ("parametrix", "w_pm_imag", "parametrix.w_pm_imag"),
    ("parametrix", "outer_eval", "parametrix.eval"),
    ("parametrix", "inner_eval", "parametrix.eval"),
    ("smallnorm", "k_norm_bounds", "smallnorm.k_norm_bounds"),
    ("smallnorm", "eta1_modulus", "smallnorm.eta"),
    ("smallnorm", "eta2_modulus", "smallnorm.eta"),
    ("smallnorm", "j1_modulus", "smallnorm.j"),
    ("smallnorm", "j2_modulus", "smallnorm.j"),
    ("smallnorm", "j1_direct", "smallnorm.j_direct"),
    ("smallnorm", "j2_direct", "smallnorm.j_direct"),
    ("smallnorm", "bessel_ratio_bounds_check", "smallnorm.ratio_check"),
    ("smallnorm", "eta_bound_check", "smallnorm.eta_bound_check"),
    ("verify", "run_suite", "verify.run_suite"),
    ("cli", "main", "cli.main"),
)
METHODS = (("parametrix", "D1Grid", "cauchy", "parametrix.cauchy"),)
MP_FUNCTIONS = (("besselk", "mpfun.besselk"), ("besselj", "mpfun.besseljy"),
                ("bessely", "mpfun.besseljy"))
# counted, not spanned: called thousands of times per op
POLY_METHODS = ("eval", "deriv_eval")


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self, clock=time.process_time):
        self._clock = clock
        self.spans = []          # [name, start, end, parent index]
        self._stack = []
        self.counts = Counter()
        self.maxima = {}
        self.minima = {}
        self._patches = []       # (owner, attribute, original, was_own)

    # -- recording -------------------------------------------------------
    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        stack = self._stack
        if stack and self.spans[stack[-1]][0] == name:
            return fn(*args, **kwargs)
        span = [name, self._clock(), None,
                stack[-1] if stack else None]
        stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = self._clock()
            stack.pop()

    def inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def note_max(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def note_min(self, key, value):
        self.minima[key] = min(self.minima.get(key, value), value)

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr),
                              attr in vars(owner)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname != "oscq" and not modname.startswith("oscq."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _span_wrapper(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out
        return wrapper

    @contextmanager
    def patched(self):
        """Wrap every traced entry point; restore the originals on exit."""
        mods = {m: sys.modules[f"oscq.{m}"] for m, _, _ in FUNCTIONS}
        after = {
            "moments.monic_op": lambda p, a, k: self.note_max(
                "moments.bits_used_max", p.prec),
            "zeros.find_zeros": lambda z, a, k: self.note_max(
                "zeros.bits_used_max", z.prec),
            "quadrule.gauss_rule": self._after_rule,
            "parametrix.grid_build": self._after_grid,
        }
        try:
            for modname, attr, name in FUNCTIONS:
                original = getattr(mods[modname], attr)
                if name == "quadrature.quad_ts":
                    wrapper = self._quad_wrapper(original)
                else:
                    wrapper = self._span_wrapper(name, original,
                                                 after.get(name))
                self._rebind_everywhere(original, wrapper)
            for modname, cls, attr, name in METHODS:
                owner = getattr(sys.modules[f"oscq.{modname}"], cls)
                self._set(owner, attr,
                          self._span_wrapper(name, getattr(owner, attr)))
            for attr, name in MP_FUNCTIONS:
                self._set(mp, attr, self._span_wrapper(name,
                                                       getattr(mp, attr)))
            poly = oscq.moments.MonicPolynomial
            for attr in POLY_METHODS:
                self._set(poly, attr, self._poly_wrapper(getattr(poly,
                                                                 attr)))
            yield self
        finally:
            while self._patches:
                owner, attr, original, was_own = self._patches.pop()
                if was_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)

    def _poly_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            if self.inside("zeros.find_zeros"):
                self.counts["zeros.poly_evals"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _quad_wrapper(self, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            f = bound.arguments["f"]

            def counted(x):
                self.counts["quadrature.evals"] += 1
                return f(x)

            bound.arguments["f"] = counted
            value, err = self.call("quadrature.quad_ts", fn, *bound.args,
                                   **bound.kwargs)
            prec = bound.arguments["prec"]
            target = bound.arguments.get("target")
            goal = float(target) if target is not None \
                else 2.0 ** (-(prec // 4))
            self.note_max("quadrature.err_ratio_max",
                          float(err) / (goal * max(1.0, float(abs(value)))))
            return value, err
        return wrapper

    def _after_rule(self, rule, args, kwargs):
        report = rule.exactness_report
        bits = float(-mp.log(report, 2)) if report > 0 else 2.0 * rule.prec
        self.note_min("quadrule.exactness_bits_min", bits)

    def _after_grid(self, grid, args, kwargs):
        self.counts["parametrix.grid_nodes"] += len(grid.nodes)

    # -- summaries -------------------------------------------------------
    def self_times(self):
        """{span name: (calls, total seconds, self seconds)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _), c in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - c
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts,
                       "maxima": self.maxima, "minima": self.minima}, fh)


def layer_metrics(tracer: Tracer, ladders: int) -> dict:
    """The per-layer metrics, as per-ladder means of counts and seconds.

    Maxima and minima are taken over the whole traced run; a layer that did
    no work reads 0.
    """
    rows = tracer.self_times()
    per = 1.0 / ladders

    def calls(*names):
        return sum(rows[n][0] for n in names if n in rows) * per

    def self_s(*names):
        return sum(rows[n][2] for n in names if n in rows) * per

    def count(key):
        return tracer.counts.get(key, 0) * per

    m = {
        "mpfun.gamma.calls": calls("mpfun.gamma"),
        "mpfun.besselk.calls": calls("mpfun.besselk"),
        "mpfun.besselk.self_s": self_s("mpfun.besselk"),
        "mpfun.besseljy.calls": calls("mpfun.besseljy"),
        "mpfun.besseljy.self_s": self_s("mpfun.besseljy"),
        "quadrature.quad_ts.calls": calls("quadrature.quad_ts"),
        "quadrature.quad_ts.self_s": self_s("quadrature.quad_ts"),
        "quadrature.evals": count("quadrature.evals"),
        "quadrature.err_ratio_max":
            tracer.maxima.get("quadrature.err_ratio_max", 0.0),
        "moments.monic_op.calls": calls("moments.monic_op"),
        "moments.monic_op.self_s": self_s("moments.monic_op"),
        "moments.hankel_det.calls": calls("moments.hankel_det"),
        "moments.hankel_det.self_s": self_s("moments.hankel_det"),
        "moments.escalations": calls("moments.hankel_det")
        - calls("moments.monic_op"),
        "moments.moment.calls": calls("moments.moment"),
        "moments.bits_used_max": tracer.maxima.get("moments.bits_used_max",
                                                   0),
        "zeros.find_zeros.calls": calls("zeros.find_zeros"),
        "zeros.find_zeros.self_s": self_s("zeros.find_zeros"),
        "zeros.poly_evals": count("zeros.poly_evals"),
        "zeros.bits_used_max": tracer.maxima.get("zeros.bits_used_max", 0),
        "quadrule.gauss_rule.calls": calls("quadrule.gauss_rule"),
        "quadrule.gauss_rule.self_s": self_s("quadrule.gauss_rule"),
        "quadrule.exactness_bits_min":
            tracer.minima.get("quadrule.exactness_bits_min", 0.0),
        "equilibrium.g_fn.calls": calls("equilibrium.g_fn"),
        "equilibrium.g_fn.self_s": self_s("equilibrium.g_fn"),
        "equilibrium.theta_n.calls": calls("equilibrium.theta_n"),
        "equilibrium.theta_n.self_s": self_s("equilibrium.theta_n"),
        "equilibrium.psi_evals": calls("equilibrium.psi"),
        "parametrix.grid_builds": calls("parametrix.grid_build"),
        "parametrix.grid_build_s":
            rows["parametrix.grid_build"][1] * per
            if "parametrix.grid_build" in rows else 0.0,
        "parametrix.grid_nodes": count("parametrix.grid_nodes"),
        "parametrix.cauchy.calls": calls("parametrix.cauchy"),
        "parametrix.cauchy.self_s": self_s("parametrix.cauchy"),
        "parametrix.d1n.calls": calls("parametrix.d1n"),
        "parametrix.eval.calls": calls("parametrix.eval"),
        "parametrix.eval.self_s": self_s("parametrix.eval"),
        "smallnorm.k_norm_bounds.calls": calls("smallnorm.k_norm_bounds"),
        "smallnorm.k_norm_bounds.self_s": self_s("smallnorm.k_norm_bounds"),
        "smallnorm.eta.calls": calls("smallnorm.eta"),
        "smallnorm.eta.self_s": self_s("smallnorm.eta"),
        "smallnorm.j.calls": calls("smallnorm.j"),
        "smallnorm.j.self_s": self_s("smallnorm.j"),
    }
    builds = m["parametrix.grid_builds"]
    m["parametrix.cauchy_per_build"] = \
        m["parametrix.cauchy.calls"] / builds if builds else 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r[2] for n, r in rows.items()
                                   if n.split(".")[0] == layer) * per
    return {k: (v if isinstance(v, int) or math.isfinite(v) else 0.0)
            for k, v in m.items()}
