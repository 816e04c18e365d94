"""Import rules between the oscq modules, read from the source with ast.

A module's underscore names are its own; only `verify`, which holds the
test oracles, reaches into them.  The recurrence pipeline (moments, zeros,
rules) and the closed-form equilibrium layer run without the tanh-sinh
engine, directly or through another oscq module.  The mpc recurrence of
`MonicPolynomial` is an oracle for the root finder and the Gauss weights,
which evaluate in fixed point, never by it.  Likewise mpmath's J and Y are
oracles for `mpfun.besseljy_real`, the one route of the small-norm kernels
to them.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "oscq"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
NO_QUADRATURE = ("moments", "equilibrium", "zeros", "quadrule")
MPC_EVALUATORS = ("eval", "eval_with_deriv", "deriv_eval")
FIXED_POINT_EVALUATORS = ("zeros", "quadrule")
MPMATH_JY = ("besselj", "bessely")


def _imports(module: str):
    """(oscq module, imported name or None) for every import statement in
    the module, function bodies included; None stands for the module
    itself (`from . import x`, `import oscq.x`)."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level == 0:
                if not mod.startswith("oscq"):
                    continue
                mod = mod[len("oscq"):].lstrip(".")
            if mod:
                out.extend((mod, a.name) for a in node.names)
            else:
                out.extend((a.name, None) for a in node.names)
        elif isinstance(node, ast.Import):
            out.extend((a.name.split(".")[1], None) for a in node.names
                       if a.name.startswith("oscq."))
    return out


@pytest.mark.parametrize("module", [m for m in MODULES if m != "verify"])
def test_no_private_imports_across_modules(module):
    private = [f"{src}.{name}" for src, name in _imports(module)
               if name is not None and name.startswith("_") and src != module]
    assert not private, f"{module} imports {private}"


@pytest.mark.parametrize("module", NO_QUADRATURE)
def test_recurrence_and_closed_form_layers_skip_quadrature(module):
    seen, todo = set(), [module]
    while todo:
        mod = todo.pop()
        if mod in seen:
            continue
        seen.add(mod)
        todo.extend(src for src, _ in _imports(mod) if src in MODULES)
    assert "quadrature" not in seen, f"{module} reaches quadrature"


def test_root_finder_never_evaluates_by_the_mpc_recurrence():
    for module in FIXED_POINT_EVALUATORS:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        used = sorted({node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr in MPC_EVALUATORS})
        assert not used, f"{module} reaches MonicPolynomial.{used}"


def test_small_norm_kernels_never_call_mpmath_j_or_y():
    tree = ast.parse((SRC / "smallnorm.py").read_text())
    used = sorted({node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr in MPMATH_JY}
                  | {a.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for a in node.names if a.name in MPMATH_JY})
    assert not used, f"smallnorm reaches mpmath's {used}"
