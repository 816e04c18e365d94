"""Golden outputs: a SHA-256 digest of the canonical bytes of each output
that a change meant to keep every value bit for bit must leave alone.

    python tests/golden.py --write   # compute every output, write golden.json
    python tests/golden.py --check   # compute every output, compare

The outputs are the `oscq zeros --nu 0.25 --n 16` and `oscq asymptotics
--nu 0.25 --n 16 --regime outer|inner` CSVs, `gauss_rule(n, "0.25", 256)`
for n = 1..16, `k_norm_bounds(n, nu, 128)` for n in {16, 32} and nu in
{0.05, 0.25, 0.5, 0.9}, the D1 grid payloads of the cases
`test_parametrix.D1_PASS_CASES` builds, and the records of every `oscq
verify` suite at its defaults, each with its measured value in full
beside the 8 digits that `oscq verify` prints.  A CSV's canonical bytes
are the file's bytes; a value's are the compact, key-sorted JSON of its
structure, with an mpf as the integers of its `_mpf_` tuple and an mpc
as its two parts.
golden.json also records the mpmath version and backend the digests came
from, and a mismatch names both: whether mpmath's python and gmpy2
backends give the same bits here has not been checked.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import pathlib
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import mpmath  # noqa: E402
from mpmath import mpc, mpf  # noqa: E402

from oscq import cli, parametrix, smallnorm, verify  # noqa: E402
from oscq.quadrule import gauss_rule  # noqa: E402

GOLDEN = HERE / "golden.json"
RULE_NU, RULE_PREC = "0.25", 256
K_NORM_CASES = [(n, nu) for n in (16, 32)
                for nu in ("0.05", "0.25", "0.5", "0.9")]
K_NORM_PREC = 128
CLI_RUNS = (("zeros", "--nu", "0.25", "--n", "16"),
            ("asymptotics", "--nu", "0.25", "--n", "16", "--regime", "outer"),
            ("asymptotics", "--nu", "0.25", "--n", "16", "--regime", "inner"))


def canonical(value):
    """value as plain JSON data: mpf as ["mpf", sign, man, exp, bc], mpc as
    ["mpc", re, im], a dataclass as its type name and fields."""
    if isinstance(value, mpf):
        return ["mpf", *map(int, value._mpf_)]
    if isinstance(value, mpc):
        return ["mpc", canonical(value.real), canonical(value.imag)]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__,
                {f.name: canonical(getattr(value, f.name))
                 for f in dataclasses.fields(value)}]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (int, str)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(value) -> str:
    """SHA-256 of bytes as they are, or of a value's canonical JSON."""
    if not isinstance(value, bytes):
        value = json.dumps(canonical(value), sort_keys=True,
                           separators=(",", ":")).encode()
    return hashlib.sha256(value).hexdigest()


def cli_name(args) -> str:
    return "oscq " + " ".join(args)


def rule_name(n: int) -> str:
    return f"gauss_rule({n}, {RULE_NU}, {RULE_PREC})"


def k_norm_name(n: int, nu: str) -> str:
    return f"k_norm_bounds({n}, {nu}, {K_NORM_PREC})"


def d1_name(n: int, nu: str, prec: int) -> str:
    return f"build_d1_grid({n}, {nu}, {prec})"


def suite_name(suite: str) -> str:
    return f"oscq verify --suite {suite}"


def suite_records(suite: str):
    """A suite's records as `oscq verify` prints them, each beside its
    measured value in full."""
    return [[r.as_dict(), r.value] for r in verify.run_suite(suite)]


def cli_csv(args) -> bytes:
    """The CSV bytes of one in-process `oscq` run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.csv"
        code = cli.main([*args, "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"{cli_name(args)} exited {code}")
        return out.read_bytes()


def d1_payload(n: int, nu: str, prec: int):
    grid = parametrix.build_d1_grid(n, nu, prec)
    return grid.scale, grid.nodes, grid.wk


def outputs() -> dict:
    """name -> a function computing the output, in one fixed order."""
    from test_parametrix import D1_PASS_CASES

    out = {cli_name(a): (lambda a=a: cli_csv(a)) for a in CLI_RUNS}
    out.update({rule_name(n): (lambda n=n: gauss_rule(n, RULE_NU, RULE_PREC))
                for n in range(1, 17)})
    out.update({k_norm_name(n, nu): (lambda n=n, nu=nu: smallnorm
                                     .k_norm_bounds(n, nu, K_NORM_PREC))
                for n, nu in K_NORM_CASES})
    out.update({d1_name(*case): (lambda case=case: d1_payload(*case))
                for case in D1_PASS_CASES})
    out.update({suite_name(s): (lambda s=s: suite_records(s))
                for s in verify.SUITES})
    return out


def environment() -> dict:
    return {"mpmath": mpmath.__version__, "backend": mpmath.libmp.BACKEND}


def load() -> dict:
    return json.loads(GOLDEN.read_text())


def mismatch_note(golden: dict) -> str:
    """Where the golden digests and this run came from."""
    here = environment()
    return (f"golden: mpmath {golden['mpmath']} on the {golden['backend']} "
            f"backend; this run: mpmath {here['mpmath']} on the "
            f"{here['backend']} backend")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = p.parse_args(argv)
    golden = None if args.write else load()
    digests, bad = {}, []
    for name, compute in outputs().items():
        t0 = time.perf_counter()
        digests[name] = digest(compute())
        ok = golden is None or golden["digests"].get(name) == digests[name]
        print(f"{'ok ' if ok else 'BAD'} {time.perf_counter() - t0:7.2f} s "
              f"{name}", flush=True)
        if not ok:
            bad.append(name)
    if args.write:
        GOLDEN.write_text(json.dumps({**environment(), "digests": digests},
                                     indent=1) + "\n")
        return 0
    stale = sorted(set(golden["digests"]) - set(digests))
    if bad or stale:
        print(f"{len(bad)} outputs differ, {len(stale)} recorded outputs "
              f"were not computed {stale}; {mismatch_note(golden)}")
        return 1
    print(f"all {len(digests)} outputs match; {mismatch_note(golden)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
