"""The four seeded workloads: each ladder is a list of ops with fresh inputs.

Every op draws its own nu on a 1e-6 grid, uniform in [0, 1) (in
[SMALLNORM_NU_MIN, 1) on `smallnorm`), so no per-(n, nu) cache can hit
across ops, just as each CLI invocation starts cold.  oscq receives only
the generated inputs.  Ops call oscq through the module attributes
`cli.main`, `quadrule.gauss_rule` and `smallnorm.k_norm_bounds`, looked up
at call time, so a traced ladder sees the wrapped functions.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from oscq import cli, quadrature, quadrule, smallnorm

import checks

ZEROS_N = (16, 32, 48, 64)
RULES_N = range(1, 17)
RULES_PREC = 256
SMALLNORM_N = (16, 32)
SMALLNORM_PREC = 128
# k_norm_bounds slows steeply as nu falls towards 0: at n = 16 it took
# about 18 s of CPU at nu = 0.05, 37 s at 0.04 and more than 280 s at 0.02,
# longer than a run may last
SMALLNORM_NU_MIN = 50_000          # 0.05 on the 1e-6 grid
SMALLNORM_CHECK_Y = 2              # axis points per n for the eta check
ASYMPTOTICS_N = (16, 32)
ASYMPTOTICS_POINTS = 50
# ladders a run holds at least, beyond what --seconds asks: a rules ladder
# takes about 2 s, and the median of the three that 6 s hold left the
# quartile spread of op_max_s (the n=16 rule) at 0.096 of its median over
# ten seeds
MIN_LADDERS = {"rules": 5}
# bits requested under --prec auto: the floor each command applies
AUTO_FLOOR = {"zeros": 64, "asymptotics": 256}
# seven decimals: no op draws this nu, so warm-up fills no cache an op reads
WARM_NU = "0.5000005"


@dataclass
class Op:
    label: str
    bits_requested: int
    run: Callable[[], Any]                        # timed
    check: Callable[[Any], tuple[int, list[str]]]  # untimed: bits, failures
    outputs: tuple[str, ...] = ()


def _exit_ok(rc, bits_bad):
    bits, bad = bits_bad
    return bits, ([f"exit code {rc}"] if rc != 0 else []) + bad


def _cli(argv):
    return lambda: cli.main(argv)


def _outer_ok(x, y):
    """dist(z, [-1, 1]) >= 0.2 and |z| <= 3."""
    d = math.hypot(max(abs(x) - 1, 0.0), y)
    return d >= 0.2 + 1e-9 and math.hypot(x, y) <= 3 - 1e-9


def _inner_ok(x, y):
    """|Re z| <= 1, |Im z| <= 0.1, outside the 0.2-disks at 0 and +-1."""
    return (abs(x) <= 1 and abs(y) <= 0.1
            and min(math.hypot(x - c, y) for c in (-1, 0, 1)) >= 0.2 + 1e-9)


class Generator:
    """Draws one workload's ladders from its seed."""

    def __init__(self, workload: str, seed: int, tmp: str):
        self.workload = workload
        self.rng = random.Random(f"{workload}:{seed}")
        self.tmp = tmp

    def nu(self, lo: int = 0) -> str:
        return f"{self.rng.randrange(lo, 10 ** 6) / 10 ** 6:.6f}"

    def points(self, regime: str):
        """ASYMPTOTICS_POINTS points, uniform over the regime's domain
        (rejection from its bounding box), as 6-decimal strings."""
        ok, (w, h) = ((_outer_ok, (3.0, 3.0)) if regime == "outer"
                      else (_inner_ok, (1.0, 0.1)))
        out = []
        while len(out) < ASYMPTOTICS_POINTS:
            x = f"{self.rng.uniform(-w, w):.6f}"
            y = f"{self.rng.uniform(-h, h):.6f}"
            if ok(float(x), float(y)):
                out.append((x, y))
        return out

    def ladder(self) -> list[Op]:
        return getattr(self, "_" + self.workload)()

    def _path(self, name):
        return os.path.join(self.tmp, name)

    def _zeros(self):
        ops = []
        for n in ZEROS_N:
            nu, out = self.nu(), self._path(f"zeros-{n}.csv")
            ops.append(Op(
                f"zeros n={n} nu={nu}", AUTO_FLOOR["zeros"],
                _cli(["zeros", "--nu", nu, "--n", str(n), "--out", out]),
                lambda rc, out=out, n=n, nu=nu: _exit_ok(
                    rc, checks.check_zeros(out, n, nu, AUTO_FLOOR["zeros"])),
                (out, out + ".manifest.json")))
        return ops

    def _rules(self):
        ops = []
        for n in RULES_N:
            nu = self.nu()
            ops.append(Op(
                f"gauss_rule n={n} nu={nu}", RULES_PREC,
                lambda n=n, nu=nu: quadrule.gauss_rule(n, nu, RULES_PREC),
                lambda rule, n=n, nu=nu: (rule.prec, checks.check_rule(
                    rule, n, nu, RULES_PREC))))
        return ops

    def _smallnorm(self):
        """AC-8's operator-norm integrals at n = 16 and 32 for one nu; the
        check also gets seeded axis points, log-uniform over the range
        where the kernels peak."""
        nu = self.nu(SMALLNORM_NU_MIN)
        ys = {n: [f"{10 ** self.rng.uniform(-3, -1):.6f}"
                  for _ in range(SMALLNORM_CHECK_Y)] for n in SMALLNORM_N}

        def run():
            return {n: smallnorm.k_norm_bounds(n, nu, prec=SMALLNORM_PREC)
                    for n in SMALLNORM_N}

        return [Op(f"k_norm_bounds n={','.join(map(str, SMALLNORM_N))} "
                   f"nu={nu}", SMALLNORM_PREC, run,
                   lambda res: (SMALLNORM_PREC, checks.check_k_norms(
                       res, nu, ys, SMALLNORM_PREC)))]

    def _asymptotics(self):
        ops = []
        for regime in ("outer", "inner"):
            for n in ASYMPTOTICS_N:
                nu = self.nu()
                pts = self.points(regime)
                src = self._path(f"points-{regime}-{n}.csv")
                with open(src, "w", newline="") as fh:
                    csv.writer(fh).writerows([("z_re", "z_im"), *pts])
                out = self._path(f"asymptotics-{regime}-{n}.csv")
                ops.append(Op(
                    f"asymptotics {regime} n={n} nu={nu}",
                    AUTO_FLOOR["asymptotics"],
                    _cli(["asymptotics", "--nu", nu, "--n", str(n),
                          "--regime", regime, "--points", src, "--out", out]),
                    lambda rc, out=out, pts=pts, n=n, nu=nu, regime=regime:
                        _exit_ok(rc, checks.check_asymptotics(
                            out, pts, n, nu, regime)),
                    (out, out + ".manifest.json")))
        return ops


def warm_up(workload: str, tmp: str):
    """Fill process-lifetime tables (tanh-sinh nodes, mpmath's constant and
    gamma caches) at the precisions the workload's ops use, with a nu no op
    draws, so no per-(n, nu) cache the timed ops read is touched."""
    out = os.path.join(tmp, "warm.csv")
    if workload == "zeros":
        cli.main(["zeros", "--nu", WARM_NU, "--n", "4", "--prec", "1024",
                  "--out", out])
    elif workload == "rules":
        quadrule.gauss_rule(2, WARM_NU, RULES_PREC)
    elif workload == "smallnorm":
        # fills the tanh-sinh node tables that the D1 grids are built from
        quadrature.quad_ts(lambda x: x, [0, 1], SMALLNORM_PREC, target=0,
                           raise_on_fail=False)
        smallnorm.j1_modulus("0.01", 4, WARM_NU, SMALLNORM_PREC)
    else:
        for regime in ("outer", "inner"):
            cli.main(["asymptotics", "--nu", WARM_NU, "--n", "4",
                      "--regime", regime, "--out", out])
