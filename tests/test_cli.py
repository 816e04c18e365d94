import cmath
import contextlib
import csv
import io
import json
import os
import random
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from oscq import cli, verify
from oscq.cli import _INNER_GRID, _OUTER_GRID, main
from oscq.mpfun import workprec

from conftest import get_tilde


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "oscq.cli", *args],
                          capture_output=True, text=True)


def test_zeros_command(tmp_path):
    out = tmp_path / "z.csv"
    r = run_cli("zeros", "--nu", "0", "--n", "4", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(out.open(newline="")))
    assert len(rows) == 4
    assert list(rows[0]) == ["index", "re", "im", "re_w", "im_w", "residual"]
    with workprec(128):
        for row in rows:
            assert abs(mpf(row["re"])) <= mpf(10) ** -20
            # frame consistency: re = -n pi im_w
            assert abs(mpf(row["re"]) + 4 * mp.pi * mpf(row["im_w"])) \
                <= mpf(10) ** -20
    man = json.loads((tmp_path / "z.csv.manifest.json").read_text())
    assert man["command"] == "zeros"
    assert man["n"] == 4
    assert man["precision_bits_used"] == 256     # auto
    assert "zero_line" in man["residual_summaries"]
    assert man["chi_profile"] == "smoothstep-exp"


def test_zeros_runs_at_the_requested_precision(tmp_path):
    # the polynomial and its roots carry the caller's 128 bits, with
    # Newton corrections below 2^-(prec/2)
    out = tmp_path / "z.csv"
    assert main(["zeros", "--nu", "0.25", "--n", "16", "--prec", "128",
                 "--out", str(out)]) == 0
    man = json.loads((tmp_path / "z.csv.manifest.json").read_text())
    assert man["precision_bits_used"] == 128
    rows = list(csv.DictReader(out.open(newline="")))
    assert len(rows) == 16
    with workprec(128):
        assert all(0 <= mpf(row["residual"]) < mpf(2) ** -64 for row in rows)


def test_zeros_degree_one(tmp_path):
    # one root, m_1/m_0 = nu; the zero-line statistics need epsilon_n,
    # which is defined from n = 2 on
    out = tmp_path / "z.csv"
    r = run_cli("zeros", "--nu", "0.5", "--n", "1", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(out.open(newline="")))
    assert len(rows) == 1
    with workprec(128):
        assert abs(mpf(rows[0]["re"]) - mpf("0.5")) <= mpf(10) ** -20
        assert abs(mpf(rows[0]["im"])) <= mpf(10) ** -20
    man = json.loads((tmp_path / "z.csv.manifest.json").read_text())
    assert man["n"] == 1
    assert man["residual_summaries"]["zero_line"] is None


@pytest.mark.parametrize("nu, proven", [("0.5", True), ("0.75", False)])
def test_zeros_zero_line_divides_by_epsilon_n_in_proven_range(
        tmp_path, nu, proven):
    # the line law is proven for 0 <= nu <= 1/2; above, epsilon_n grows
    # with n and the deviation is reported undivided
    out = tmp_path / "z.csv"
    r = run_cli("zeros", "--nu", nu, "--n", "16", "--out", str(out))
    assert r.returncode == 0, r.stderr
    man = json.loads((tmp_path / "z.csv.manifest.json").read_text())
    line = man["residual_summaries"]["zero_line"]
    assert line["proven_range"] is proven
    assert line["max_dev"] is not None and line["zeros_considered"] > 0
    assert (line["max_dev_over_epsilon_n"] is not None) is proven


@pytest.mark.parametrize("n, nu, mirrored", [(64, "0.37", 32),
                                              (16, "0.999999", 7)])
def test_zeros_manifest_counts_mirrored_roots(tmp_path, n, nu, mirrored):
    # generic nu: every root has a mirror partner off the axis; near
    # nu = 1 two roots of even degree lie on the axis, (n - 2)/2 mirrored
    out = tmp_path / "z.csv"
    assert main(["zeros", "--nu", nu, "--n", str(n), "--out",
                 str(out)]) == 0
    man = json.loads((tmp_path / "z.csv.manifest.json").read_text())
    assert man["residual_summaries"]["roots_mirrored"] == mirrored
    # only the other roots are evaluated: once at the 214-bit rung and
    # once at the 352-bit root scale of the 256-bit run
    work = man["residual_summaries"]["root_evaluations"]
    assert work["214"] == work["352"] == n - mirrored
    assert work["float"] > 0


def test_zeros_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli("zeros", "--nu", "0.25", "--n", "5",
                   "--out", str(a)).returncode == 0
    assert run_cli("zeros", "--nu", "0.25", "--n", "5",
                   "--out", str(b)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


# the manifest keys the README documents: every CSV command's, then each
# command's own
MANIFEST_KEYS = {"command", "precision_bits_used", "nu", "n", "output",
                 "delta", "eps", "rho", "chi_profile", "mpmath_backend",
                 "wall_time_s", "csv_schema", "residual_summaries"}
OWN_KEYS = {"zeros": set(), "asymptotics": {"regime", "points"}}


@pytest.mark.parametrize("args", [("zeros",),
                                  ("asymptotics", "--regime", "outer"),
                                  ("asymptotics", "--regime", "inner")],
                         ids=lambda a: "-".join(a[::2]))
def test_manifest_states_the_csv_header_and_the_documented_keys(tmp_path,
                                                                 args):
    out = tmp_path / "x.csv"
    assert main([*args, "--nu", "0.25", "--n", "8", "--out", str(out)]) == 0
    man = json.loads((tmp_path / "x.csv.manifest.json").read_text())
    assert man["csv_schema"] == out.read_bytes().split(b"\r\n")[0].decode()
    assert set(man) == MANIFEST_KEYS | OWN_KEYS[args[0]]


def test_zeros_desk_ceiling(tmp_path):
    r = run_cli("zeros", "--nu", "0.25", "--n", "201",
                "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2
    assert "allow-long" in r.stderr


def test_verify_command(tmp_path):
    out = tmp_path / "report.json"
    r = run_cli("verify", "--suite", "quadrature", "--n-list", "1..3",
                "--prec", "192", "--out", str(out))
    assert r.returncode == 0, r.stderr
    report = json.loads(out.read_text())
    assert report["suite"] == "quadrature"
    assert report["passed"] is True
    assert all(set(c) == {"name", "measured", "threshold", "passed"}
               for c in report["checks"])


@pytest.mark.parametrize("suite, n", [("zeros", 3), ("quadrature", 2)])
def test_suites_read_their_degrees_as_a_set(suite, n):
    # a repeated degree is one degree, and the order of the list is not
    # read (smallnorm's own test: test_suite_smallnorm_reads_its_degrees_
    # as_a_set)
    def records(n_list):
        return [r.as_dict() for r in verify.run_suite(suite, n_list=n_list,
                                                      prec=64)]

    names = [r["name"] for r in records([n, n])]
    assert len(names) == len(set(names))
    assert records([n, n]) == records([n])
    assert records([3, 2]) == records([2, 3])


def test_verify_bad_suite():
    r = run_cli("verify", "--suite", "nonsense")
    assert r.returncode == 2


# malformed --points files, written into each case's tmp_path
BAD_POINTS = {"empty.csv": "", "header_only.csv": "z_re,z_im\r\n",
              "no_columns.csv": "x,y\r\n0.5,0.5\r\n",
              "bad_number.csv": "z_re,z_im\r\nabc,0\r\n",
              "infinite.csv": "z_re,z_im\r\ninf,0\r\n",
              "nan.csv": "z_re,z_im\r\nnan,0.5\r\n"}


@pytest.mark.parametrize("args", [
    ("zeros", "--nu", "0", "--n", "4", "--prec", "abc"),
    ("zeros", "--nu", "0", "--n", "4", "--prec", "10"),
    ("zeros", "--nu", "abc", "--n", "4"),
    ("zeros", "--nu", "0", "--n", "0"),
    ("zeros", "--nu", "0", "--n", "4", "--delta", "abc"),
    ("asymptotics", "--nu", "0.25", "--n", "1", "--regime", "outer"),
    ("verify", "--suite", "zeros", "--prec", "10"),
    ("verify", "--suite", "zeros", "--n-list", "2..x"),
    ("verify", "--suite", "smallnorm", "--n-list", "1"),
    ("verify", "--suite", "quadrature", "--n-list", "0..2"),
    ("verify", "--suite", "zeros", "--n-list", "5..3"),
    ("verify", "--suite", "zeros", "--n-list", ","),
    ("verify", "--suite", "smallnorm", "--n-list", "16"),
    ("verify", "--suite", "smallnorm", "--n-list", "16,16"),
    *(("asymptotics", "--nu", "0.25", "--n", "8", "--regime", "outer",
       "--points", f"{{tmp}}/{name}")
      for name in ("missing.csv", *BAD_POINTS)),
    ("verify", "--suite", "equilibrium", "--n-list", "0"),
    ("verify", "--suite", "parametrix", "--n-list", "16,32"),
    ("verify", "--suite", "equilibrium", "--nu", "0.9"),
])
def test_malformed_input_is_a_usage_error(tmp_path, args):
    for name, text in BAD_POINTS.items():
        (tmp_path / name).write_text(text)
    args = [a.format(tmp=tmp_path) for a in args]
    out = () if args[0] == "verify" else ("--out", str(tmp_path / "x.csv"))
    r = run_cli(*args, *out)
    assert r.returncode == 2, r.stderr
    assert "Traceback" not in r.stderr
    assert "error: argument" in r.stderr


# one value on each side of each boundary: the weight's 0 <= nu < 1, on
# every command that reads nu, and the disk radius delta >= 0
BELOW_ZERO, BELOW_ONE = "-0." + "0" * 29 + "1", "0." + "9" * 30
NU_COMMANDS = (("zeros", "--n", "2"),
               ("asymptotics", "--n", "2", "--regime", "outer"),
               ("verify", "--suite", "quadrature", "--n-list", "1"))


def _in_process(args, capsys):
    """(exit code, stderr) of main(args), a usage error's included."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", NU_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("nu, code", [(BELOW_ZERO, 2), ("0", 0),
                                      (BELOW_ONE, 0), ("1", 2)])
def test_nu_outside_the_unit_interval_is_a_usage_error(tmp_path, capsys,
                                                       command, nu, code):
    got, err = _in_process([*command, "--nu", nu,
                            "--out", str(tmp_path / "x")], capsys)
    assert got == code, err
    if code == 2:
        assert "argument --nu: expected a real number nu with 0 <= nu < 1" \
            in err


@pytest.mark.parametrize("command", [
    ("zeros", "--nu", "0.25", "--n", "8"),
    ("asymptotics", "--nu", "0.25", "--n", "8", "--regime", "outer"),
    ("verify", "--suite", "zeros"),
], ids=lambda c: c[0])
@pytest.mark.parametrize("out", ["missing/x.csv", "adir"])
def test_unwritable_out_is_refused_before_the_work(tmp_path, capsys, command,
                                                   out):
    # an --out in a directory that does not exist, or naming a directory,
    # is a usage error when the arguments are parsed: no polynomial and no
    # suite runs, and no output or temporary file is left
    (tmp_path / "adir").mkdir()
    work = mock.Mock(side_effect=AssertionError("the work began"))
    with mock.patch.object(cli, "monic_op", work), \
            mock.patch.object(cli, "run_suite", work):
        code, err = _in_process([*command, "--out", str(tmp_path / out)],
                                capsys)
    assert code == 2, err
    assert "error: argument --out: expected a file path in an existing " \
        "directory" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["adir"]


@pytest.mark.parametrize("command", [
    ("zeros", "--nu", "0.25", "--n", "8"),
    ("asymptotics", "--nu", "0.25", "--n", "8", "--regime", "outer"),
], ids=lambda c: c[0])
def test_manifest_path_that_is_a_directory_is_refused_before_the_work(
        tmp_path, capsys, command):
    # the manifest goes beside the CSV, at --out + ".manifest.json"; a
    # directory there is a usage error when the arguments are parsed, so
    # no CSV is written before the manifest fails
    (tmp_path / "y.csv.manifest.json").mkdir()
    work = mock.Mock(side_effect=AssertionError("the work began"))
    with mock.patch.object(cli, "monic_op", work):
        code, err = _in_process(
            [*command, "--out", str(tmp_path / "y.csv")], capsys)
    assert code == 2, err
    assert "error: argument --out: expected a file path in an existing " \
        "directory, with no directory at its .manifest.json path" in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["y.csv.manifest.json"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_outputs_honour_the_umask(tmp_path, capsys, umask, mode):
    # the CSV and its manifest get 0666 less the umask, as a plain open
    # would give them, not the 0600 of the temporary file they replace
    old = os.umask(umask)
    try:
        code, err = _in_process(["zeros", "--nu", "0.25", "--n", "4",
                                 "--out", str(tmp_path / "z.csv")], capsys)
    finally:
        os.umask(old)
    assert code == 0, err
    assert {p.name: stat.S_IMODE(p.stat().st_mode)
            for p in tmp_path.iterdir()} \
        == {"z.csv": mode, "z.csv.manifest.json": mode}


@pytest.mark.parametrize("delta, code", [(BELOW_ZERO, 2), ("0", 0)])
def test_negative_delta_is_a_usage_error(tmp_path, capsys, delta, code):
    got, err = _in_process(["zeros", "--nu", "0.25", "--n", "4", "--delta",
                            delta, "--out", str(tmp_path / "x.csv")], capsys)
    assert got == code, err
    if code == 2:
        assert "argument --delta: expected a real number >= 0" in err


def test_asymptotics_outer(tmp_path):
    out = tmp_path / "outer.csv"
    r = run_cli("asymptotics", "--nu", "0.25", "--n", "8",
                "--regime", "outer", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(out.open(newline="")))
    assert len(rows) == 5
    with workprec(96):
        for row in rows:
            assert mpf(row["rel_err"]) <= mpf(row["error_scale"]) * 3


def test_asymptotics_domain_guard(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("z_re,z_im\r\n0.5,0.0\r\n")
    r = run_cli("asymptotics", "--nu", "0.25", "--n", "8",
                "--regime", "outer", "--points", str(pts),
                "--out", str(tmp_path / "bad.csv"))
    assert r.returncode == 4


def test_asymptotics_refuses_a_point_before_the_polynomial(tmp_path,
                                                          capsys):
    # every prediction comes first: a point outside the outer domain exits
    # 4 before monic_op runs, and nothing is written
    pts = tmp_path / "pts.csv"
    pts.write_text("z_re,z_im\r\n0.5,0.0\r\n")
    work = mock.Mock(side_effect=AssertionError("the polynomial was built"))
    with mock.patch.object(cli, "monic_op", work):
        code, err = _in_process(
            ["asymptotics", "--nu", "0.25", "--n", "8", "--regime", "outer",
             "--points", str(pts), "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 4, err
    assert "outside outer domain" in err
    assert [p.name for p in tmp_path.iterdir()] == ["pts.csv"]


@pytest.mark.parametrize("command", ["zeros", "asymptotics"])
def test_allow_long_has_help_text(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"--allow-long permit n beyond the desk ceiling " \
        f"{cli.DESK_N_CEILING}" in text


def test_asymptotics_domain_guard_off_the_boundary(tmp_path):
    # the outer command runs at 256 bits; points 2^-200 inside
    # dist(z, [-1,1]) = 0.2, on the real axis and above (-1,1), exit 4
    # one by one, and the same points 2^-200 outside pass together
    with workprec(320):
        off = mpf(2) ** -200
        out_, in_ = ([(mp.nstr(mpf("1.2") + s * off, 90), "0"),
                      ("0.5", mp.nstr(mpf("0.2") + s * off, 90))]
                     for s in (1, -1))
    pts = tmp_path / "pts.csv"
    for code, points in ((0, out_), (4, in_[:1]), (4, in_[1:])):
        pts.write_text("z_re,z_im\r\n" + "".join(
            f"{re_},{im_}\r\n" for re_, im_ in points))
        assert main(["asymptotics", "--nu", "0.25", "--n", "8",
                     "--regime", "outer", "--points", str(pts),
                     "--out", str(tmp_path / "x.csv")]) == code, points


def test_asymptotics_inner_points_file(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("z_re,z_im\r\n0.5,0.0\r\n-0.5,0.0\r\n")
    out = tmp_path / "inner.csv"
    r = run_cli("asymptotics", "--nu", "0.25", "--n", "16",
                "--regime", "inner", "--points", str(pts),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    rows = list(csv.DictReader(out.open(newline="")))
    assert len(rows) == 2
    with workprec(96):
        for row in rows:
            assert mpf(row["rel_err"]) <= mpf(row["error_scale"]) * 3


@pytest.mark.parametrize("regime", ["outer", "inner"])
def test_asymptotics_determinism(tmp_path, regime):
    pts = tmp_path / "pts.csv"
    pts.write_text("z_re,z_im\r\n" + "".join(
        f"{re_},{im_}\r\n" for re_, im_ in _seeded_points(regime)))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert run_cli("asymptotics", "--nu", "0.25", "--n", "16",
                       "--regime", regime, "--points", str(pts),
                       "--out", str(out)).returncode == 0
    assert a.read_bytes() == b.read_bytes()


def _seeded_points(regime: str, count: int = 6):
    """(z_re, z_im) strings inside the regime's domain: |z| in [1.3, 3]
    (outer), or |Re z| in [0.25, 0.75] and |Im z| <= 0.1 (inner)."""
    rng = random.Random(f"asymptotics:{regime}")
    if regime == "outer":
        zs = [cmath.rect(rng.uniform(1.3, 3), rng.uniform(-3.1, 3.1))
              for _ in range(count)]
    else:
        zs = [complex(rng.choice((-1, 1)) * rng.uniform(0.25, 0.75),
                      rng.uniform(-0.1, 0.1)) for _ in range(count)]
    return [(repr(z.real), repr(z.imag)) for z in zs]


@pytest.mark.parametrize("regime", ["outer", "inner"])
@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("nu", ["0", "0.999"])
def test_asymptotics_actual_column_matches_mpc_oracle(tmp_path, nu, n,
                                                      regime):
    # actual = P~_n(z) from the fixed-point recurrence, against the mpc
    # recurrence at 4 prec on the same binary points, the default grid
    # and a seeded points file
    grid = _OUTER_GRID if regime == "outer" else _INNER_GRID
    seeded = _seeded_points(regime)
    pts = tmp_path / "pts.csv"
    pts.write_text("z_re,z_im\r\n"
                   + "".join(f"{re_},{im_}\r\n" for re_, im_ in seeded))
    tilde = get_tilde(n, nu)
    for source in ("grid", str(pts)):
        out = tmp_path / "a.csv"
        assert main(["asymptotics", "--nu", nu, "--n", str(n), "--regime",
                     regime, "--points", source, "--out", str(out)]) == 0
        prec = json.loads((tmp_path / "a.csv.manifest.json").read_text())[
            "precision_bits_used"]
        rows = list(csv.DictReader(out.open(newline="")))
        with workprec(prec):    # the points as the command builds them
            zs = [mp.mpmathify(t.replace("i", "j")) for t in grid] \
                if source == "grid" \
                else [mpc(mpf(re_), mpf(im_)) for re_, im_ in seeded]
        assert len(rows) == len(zs)
        for row, z in zip(rows, zs):
            ref = tilde.eval(z, 4 * prec)
            with workprec(4 * prec):
                got = mpc(mpf(row["actual_re"]), mpf(row["actual_im"]))
                assert abs(got - ref) <= mpf(2) ** (16 - prec) * abs(ref), z


# the exit-code and output contract over drawn invocations of every
# command, run in process: nu weighted toward the boundaries and toward
# strings that must be rounded to be read; degree lists with repeats,
# ranges, empty and malformed syntax; good and bad --out paths.  Only the
# cheap suites (quadrature, zeros) run; the slow ones are drawn only with
# an argument they refuse
NU_TEXT = st.one_of(
    st.sampled_from(["0", "-0", "1e-30", "0.9999999999999999999999",
                     BELOW_ONE, "0.5", BELOW_ZERO, "-1e-30", "1", "nan",
                     "abc"]),
    st.integers(0, 99).map(lambda k: f"0.{k:02d}"))
N_LIST_TEXT = st.one_of(
    st.lists(st.integers(0, 8), max_size=3).map(
        lambda ns: ",".join(map(str, ns))),
    st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
        lambda t: f"{t[0]}..{t[1]}"),
    st.sampled_from([",", "2..x", "1,,2", "a"]))
PREC_TEXT = st.sampled_from(["64", "96", "64", "96", "63"])
POINTS = ("2,0", "0.5,0", "0,1.5", "-0.5,0.01", "0.3,0", "abc,0")
OUTS = ("good",) * 5 + ("missing", "dir", "slash", "manifest_dir", "omit")


@st.composite
def invocations(draw):
    """(argv with {d} for the run's directory, the points file's lines or
    None, the --out kind)."""
    command = draw(st.sampled_from(["verify", "zeros", "asymptotics"]))
    out = draw(st.sampled_from(OUTS))
    argv, points = [command], None
    if command == "verify":
        suite = draw(st.sampled_from(["quadrature", "zeros", "equilibrium",
                                      "parametrix", "smallnorm"]))
        argv += ["--suite", suite]
        nu = draw(st.none() | NU_TEXT)
        n_list = draw(st.none() | N_LIST_TEXT)
        if suite == "equilibrium" and nu is None and n_list is None:
            nu = draw(NU_TEXT)          # reads neither
        elif suite == "parametrix":
            n_list = draw(N_LIST_TEXT)  # reads no degree list
        elif suite == "smallnorm":      # one distinct degree
            n_list = ",".join([str(draw(st.integers(0, 8)))]
                              * draw(st.integers(1, 2)))
        argv += [] if nu is None else ["--nu", nu]
        argv += [] if n_list is None else ["--n-list", n_list]
    else:
        argv += ["--nu", draw(NU_TEXT)]
        n = draw(st.integers(2, 8) | st.integers(-1, 8) | st.just(201))
        argv += ["--n", str(n)]
        if command == "asymptotics":
            argv += ["--regime", draw(st.sampled_from(["outer", "inner"]))]
            if draw(st.sampled_from([True, True, False])):
                points = draw(st.lists(st.sampled_from(POINTS), min_size=1,
                                       max_size=3) | st.just([]))
                argv += ["--points", "{d}/pts.csv"]
        if n <= 8 and draw(st.booleans()):
            argv.append("--allow-long")
    if draw(st.booleans()):
        argv += ["--prec", draw(PREC_TEXT)]
    ext = "json" if command == "verify" else "csv"
    argv += {"good": ["--out", f"{{d}}/o.{ext}"],
             "missing": ["--out", "{d}/missing/x.csv"],
             "dir": ["--out", "{d}/adir"],
             "slash": ["--out", "{d}/q" + os.sep],
             "manifest_dir": ["--out", "{d}/m.csv"],
             "omit": []}[out]
    return argv, points, out


def _tree(d: Path):
    return {str(p.relative_to(d)) for p in d.rglob("*")}


@given(invocations())
def test_cli_contract_holds_on_drawn_invocations(invocation):
    argv, points, out = invocation
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "adir").mkdir()
        (d / "m.csv.manifest.json").mkdir()
        if points is not None:
            (d / "pts.csv").write_text(
                "z_re,z_im\r\n" + "".join(f"{p}\r\n" for p in points))
        before = _tree(d)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            try:
                code = main([a.format(d=d) for a in argv])
            except SystemExit as exc:
                code = exc.code
        err = stderr.getvalue()
        event(f"{argv[0]} exit {code}")
        assert code in range(5), (argv, code, err)
        assert "Traceback" not in err, err
        new = _tree(d) - before
        if code not in (0, 1):
            assert new == set(), (argv, code, new)
            return
        assert code == 0 or argv[0] == "verify", (argv, err)
        if argv[0] == "verify":     # a report, and no manifest
            name = {"good": "o.json", "manifest_dir": "m.csv"}.get(out)
            assert new == ({name} if name else set()), (argv, new)
            report = json.loads((d / name).read_text() if name
                                else stdout.getvalue())
            assert report["passed"] is (code == 0)
            assert all(c["passed"] for c in report["checks"]) is (code == 0)
            return
        assert new == {"o.csv", "o.csv.manifest.json"}, (argv, new)
        header = (d / "o.csv").read_bytes().split(b"\r\n")[0].decode()
        man = json.loads((d / "o.csv.manifest.json").read_text())
        assert man["csv_schema"] == header
