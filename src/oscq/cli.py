"""Command-line surface: polynomial zeros, invariant suites, and
asymptotic-formula comparisons, emitted as RFC 4180 CSV plus a JSON run
manifest.

Exit codes: 0 success, 1 failed verification, 2 solver failure, usage error
or refused long run, 3 indeterminate Hankel determinant, 4 point outside
the requested regime's domain.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
import time

import mpmath
from mpmath import mp, mpc, mpf
from mpmath.libmp import from_str, round_floor

from . import parametrix as px
from .moments import (IndeterminateHankelError, SolverError, monic_op,
                      rescale_to_tilde)
from .mpfun import MIN_PREC, DomainError, workprec
from .smallnorm import CHI_PROFILE, EPS_DEFAULT, RHO_DEFAULT
from .verify import SUITES, SuiteArgumentError, run_suite
from .zeros import (find_zeros, fixed_eval_with_deriv, gauss_int, root_scale,
                    zero_line_stats)

DESK_N_CEILING = 200


def fmt(x, prec: int) -> str:
    """Full-precision decimal serialization (locale-free, '.' decimal), in
    ceil(0.30103 prec) + 2 digits."""
    with workprec(prec):
        return mp.nstr(x, math.ceil(prec * 0.30103) + 2)


def _atomic_write(path: str, text: str):
    """Write text to path through a temporary file in its directory and a
    rename, with the mode a plain open would give (0666 less the umask),
    not mkstemp's 0600."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".oscq-tmp-")
    umask = os.umask(0)
    os.umask(umask)
    try:
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, prec: int, t0: float, header, rows, manifest: dict):
    """Write rows under header to args.out as RFC 4180 CSV, then beside it
    the JSON manifest: the command's own keys and those every command
    shares, csv_schema being the CSV's header line."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    w.writerows(rows)
    _atomic_write(args.out, buf.getvalue())
    manifest.update({
        "command": args.command, "precision_bits_used": prec,
        "nu": args.nu, "n": args.n, "output": os.path.basename(args.out),
        "eps": fmt(EPS_DEFAULT, 64), "rho": fmt(RHO_DEFAULT, 64),
        "chi_profile": CHI_PROFILE, "mpmath_backend": mpmath.libmp.BACKEND,
        "wall_time_s": round(time.time() - t0, 3),
        "csv_schema": ",".join(header)})
    _atomic_write(args.out + ".manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _arg(what: str, parse):
    """argparse type: parse(text), a usage error (exit 2) naming what was
    expected where parse fails or returns None."""
    def typed(text: str):
        try:
            v = parse(text)
        except (ValueError, argparse.ArgumentTypeError):
            v = None
        if v is None:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
        return v
    return typed


def _int_from(lo: int):
    return _arg(f"an integer >= {lo}",
                lambda t: int(t) if int(t) >= lo else None)


def _parse_n_list(text: str):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1)) or None
    return [int(t) for t in text.split(",") if t] or None


_BITS = _int_from(MIN_PREC)
_BITS_OR_AUTO = _arg(f"'auto' or an integer >= {MIN_PREC}",
                     lambda t: 256 if t == "auto" else _BITS(t))


def _real(ok):
    """Parse a finite real number t where ok(t rounded toward -oo to 53
    bits) holds, which keeps t's side of 0 and 1, so the checks below are
    exact.  t stays the caller's string: manifests record it and the
    layers read it."""
    def parse(t: str):
        v = mpf(from_str(t, 53, round_floor))
        return t if mp.isfinite(v) and ok(v) else None
    return parse


# 0 <= nu < 1 is the weight's contract
_NU = _arg("a real number nu with 0 <= nu < 1", _real(lambda v: 0 <= v < 1))
_RADIUS = _arg("a real number >= 0", _real(lambda v: v >= 0))
_N_LIST = _arg("'lo..hi' or 'n1,n2,...' naming a degree", _parse_n_list)


def _file_path(t: str):
    """t where it names a file in a directory that exists (the one
    _atomic_write writes its temporary file to); not a directory, nor a
    path that ends in a separator."""
    folder = os.path.dirname(os.path.abspath(t))
    ok = os.path.basename(t) and os.path.isdir(folder) and not os.path.isdir(t)
    return t if ok else None


def _file_path_with_manifest(t: str):
    """t where _file_path accepts it and the manifest _emit writes beside
    it, t + ".manifest.json", is not a directory."""
    ok = _file_path(t) and not os.path.isdir(t + ".manifest.json")
    return t if ok else None


_OUT = _arg("a file path in an existing directory", _file_path)
_OUT_WITH_MANIFEST = _arg("a file path in an existing directory, with no "
                          "directory at its .manifest.json path",
                          _file_path_with_manifest)


def _zero_line_summary(zs, args):
    """The zero-line statistics of the manifest; None at n = 1, where the
    error scale epsilon_n is undefined (log 1 = 0).  Above the proven
    range nu <= 1/2, epsilon_n grows with n and does not divide max_dev."""
    if args.n < 2:
        return None
    stats = zero_line_stats(zs, args.n, args.nu, args.delta)
    proven = 0 <= mpf(args.nu) <= mpf(1) / 2
    return {
        "proven_range": proven,
        "max_dev": None if stats.max_dev is None
        else fmt(stats.max_dev, 64),
        "epsilon_n": fmt(stats.epsilon_n, 64),
        "max_dev_over_epsilon_n": None if stats.max_dev is None
        or not proven else fmt(stats.max_dev / stats.epsilon_n, 64),
        "zeros_considered": stats.zeros_considered,
    }


def cmd_zeros(args, parser) -> int:
    t0 = time.time()
    poly = monic_op(args.n, args.nu, args.prec)
    zs = find_zeros(rescale_to_tilde(poly))
    prec = zs.prec
    rows = []
    with workprec(prec):
        scale = mpc(0, 1) * args.n * mp.pi
        for idx, (w, res) in enumerate(zip(zs.roots, zs.residuals)):
            z = scale * w
            rows.append([idx, fmt(z.real, prec), fmt(z.imag, prec),
                         fmt(w.real, prec), fmt(w.imag, prec),
                         fmt(res, prec)])
    with workprec(prec):
        summaries = {
            "hankel_solve_residual": fmt(poly.residual, 64),
            "max_newton_residual": fmt(max(zs.residuals), 64),
            "zero_line": _zero_line_summary(zs, args),
            "roots_mirrored": zs.mirrored,
            # evaluations of P_n and P_n' per stage: "float", then each
            # fixed-point scale in bits
            "root_evaluations": {str(s): k for s, k in zs.evaluations},
        }
    _emit(args, prec, t0, ["index", "re", "im", "re_w", "im_w", "residual"],
          rows, {"delta": str(args.delta), "residual_summaries": summaries})
    return 0


def cmd_verify(args, parser) -> int:
    t0 = time.time()
    kwargs = {k: v for k in ("nu", "n_list", "prec")
              if (v := getattr(args, k)) is not None}
    try:
        records = run_suite(args.suite, **kwargs)
    except SuiteArgumentError as exc:
        parser.error(f"argument --{exc.argument.replace('_', '-')}: {exc}")
    passed = all(r.passed for r in records)
    report = {
        "suite": args.suite,
        "params": {k: str(v) for k, v in kwargs.items()},
        "checks": [r.as_dict() for r in records],
        "passed": passed,
        "wall_time_s": round(time.time() - t0, 3),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


_OUTER_GRID = ("2i", "1.5", "-1.5+0.5i", "3", "0.5+2i")
_INNER_GRID = ("0.3", "0.5", "0.7", "0.45-0.02i", "-0.5")


def _read_points(source: str, parser):
    """The (z_re, z_im) strings of a CSV points file; a file that cannot
    be read, lacks either column, holds a non-finite coordinate or holds
    no point is a usage error."""
    def fail(why):
        parser.error(f"argument --points: points file {source!r} {why}")

    try:
        with open(source, newline="") as fh:
            rd = csv.DictReader(fh)
            if not {"z_re", "z_im"} <= set(rd.fieldnames or ()):
                fail("has no z_re,z_im header")
            pts = [(row["z_re"], row["z_im"]) for row in rd]
        # syntax and finiteness only; converted at prec later
        if not all(mp.isfinite(mpf(t)) for pt in pts for t in pt):
            fail("holds a non-finite coordinate")
    except (OSError, csv.Error, ValueError, TypeError) as exc:
        fail(f"cannot be read: {exc}")
    if not pts:
        fail("contains no points")
    return pts


def cmd_asymptotics(args, parser) -> int:
    t0 = time.time()
    raw = None if args.points == "grid" else _read_points(args.points, parser)
    prec = args.prec
    with workprec(prec):
        if raw is None:
            grid = _OUTER_GRID if args.regime == "outer" else _INNER_GRID
            points = [mp.mpmathify(t.replace("i", "j")) for t in grid]
        else:
            points = [mpc(mpf(re_), mpf(im_)) for re_, im_ in raw]
    # every prediction first: an out-of-domain point is refused before work
    predict = px.outer_eval if args.regime == "outer" else px.inner_eval
    preds = []
    for z in points:
        try:
            preds.append(predict(z, args.n, args.nu, prec))
        except DomainError as exc:
            print(f"point {z} outside {args.regime} domain: {exc}",
                  file=sys.stderr)
            return 4
    poly = monic_op(args.n, args.nu, prec)
    # P~_n by the root finder's recurrence at its scale; with prec + 32 bits
    # and |z| >= px.EXCLUSION_RADIUS, only a coordinate below 2^-64 is cut,
    # by <= 2^-scale
    scale = root_scale(prec)
    pair = fixed_eval_with_deriv(rescale_to_tilde(poly).recurrence, scale)
    rows = []
    for z, pred in zip(points, preds):
        pr, pi, *_, e = pair(*gauss_int(z, scale))
        with workprec(prec):
            actual = mpc(mpf((pr, e - scale)), mpf((pi, e - scale)))
            rel = abs(pred.value - actual) / abs(actual)
            rows.append([fmt(z.real, prec), fmt(z.imag, prec),
                         fmt(pred.value.real, prec),
                         fmt(pred.value.imag, prec),
                         fmt(actual.real, prec), fmt(actual.imag, prec),
                         fmt(rel, 64), fmt(pred.error_scale, 64)])
    _emit(args, prec, t0, ["z_re", "z_im", "pred_re", "pred_im", "actual_re",
                           "actual_im", "rel_err", "error_scale"], rows,
          {"regime": args.regime, "points": args.points,
           "delta": px.EXCLUSION_RADIUS, "residual_summaries": {
               "hankel_solve_residual": fmt(poly.residual, 64)}})
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="oscq",
        description="Orthogonal polynomials and complex Gaussian "
                    "quadrature for the oscillatory Bessel weight.")
    sub = p.add_subparsers(dest="command", required=True)

    # the arguments zeros and asymptotics share
    csv_command = argparse.ArgumentParser(add_help=False)
    csv_command.add_argument("--nu", type=_NU, required=True)
    csv_command.add_argument("--prec", type=_BITS_OR_AUTO, default="auto",
                             help="'auto' (256 bits) or bits")
    csv_command.add_argument("--allow-long", action="store_true",
                             help=f"permit n beyond the desk ceiling "
                                  f"{DESK_N_CEILING}")
    csv_command.add_argument("--out", type=_OUT_WITH_MANIFEST, required=True)

    pz = sub.add_parser("zeros", parents=[csv_command],
                        help="compute polynomial zeros (both frames) to "
                             "CSV + manifest")
    pz.add_argument("--n", type=_int_from(1), required=True)
    pz.add_argument("--delta", type=_RADIUS, default="0.2",
                    help="disk-exclusion radius for zero-line stats")

    pv = sub.add_parser("verify", help="run a named invariant suite")
    pv.add_argument("--suite", required=True, choices=list(SUITES))
    pv.add_argument("--nu", type=_NU)
    pv.add_argument("--n-list", type=_N_LIST,
                    help="e.g. '1..10' or '16,32,64'")
    pv.add_argument("--prec", type=_BITS)
    pv.add_argument("--out", type=_OUT)

    pa = sub.add_parser("asymptotics", parents=[csv_command],
                        help="compare polynomial values against the "
                             "asymptotic formulas")
    # the error scale epsilon_n needs n >= 2
    pa.add_argument("--n", type=_int_from(2), required=True)
    pa.add_argument("--points", default="grid",
                    help="'grid' or a CSV file with z_re,z_im columns")
    pa.add_argument("--regime", required=True, choices=["outer", "inner"])
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command != "verify" and args.n > DESK_N_CEILING \
            and not args.allow_long:
        parser.error(f"n={args.n} exceeds the desk-scale ceiling "
                     f"{DESK_N_CEILING}; pass --allow-long to proceed")
    handler = {"zeros": cmd_zeros, "verify": cmd_verify,
               "asymptotics": cmd_asymptotics}[args.command]
    try:
        return handler(args, parser)
    except IndeterminateHankelError as exc:
        print(f"indeterminate Hankel determinant: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
