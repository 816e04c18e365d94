"""A cheap subset of the golden outputs (golden.py), recomputed through the
session caches where they exist: the CLI CSVs, the Gauss rules, one
k_norm_bounds case with the D1 grid it reads, two more grid payloads and
every verify suite but parametrix.  `python tests/golden.py --check`
recomputes the whole set."""

import pytest

import golden

from conftest import get_k_norm_grid, get_k_norms, get_rule

GOLDEN = golden.load()


def assert_golden(name, value):
    assert golden.digest(value) == GOLDEN["digests"][name], \
        f"{name} differs from its golden digest; " \
        f"{golden.mismatch_note(GOLDEN)}"


@pytest.mark.parametrize("args", golden.CLI_RUNS, ids=" ".join)
def test_cli_csv_is_golden(args):
    assert_golden(golden.cli_name(args), golden.cli_csv(args))


def test_gauss_rules_are_golden():
    for n in range(1, 17):
        assert_golden(golden.rule_name(n),
                      get_rule(n, golden.RULE_NU, golden.RULE_PREC))


def test_k_norm_bounds_and_its_grid_are_golden():
    n, nu, prec = 16, "0.25", golden.K_NORM_PREC
    assert_golden(golden.k_norm_name(n, nu), get_k_norms(n, nu, prec))
    grid = get_k_norm_grid(n, nu, prec)
    assert_golden(golden.d1_name(n, nu, prec),
                  (grid.scale, grid.nodes, grid.wk))


@pytest.mark.parametrize("case", [(2, "0", 128), (3, "0.05", 192)])
def test_d1_grid_payload_is_golden(case):
    assert_golden(golden.d1_name(*case), golden.d1_payload(*case))


@pytest.mark.parametrize("suite", ["equilibrium", "smallnorm", "quadrature",
                                   "zeros"])
def test_verify_records_are_golden(suite):
    assert_golden(golden.suite_name(suite), golden.suite_records(suite))
