"""Import rules between the oscq modules, read from the source with ast.

A module's underscore names are its own; only `verify`, which holds the
test oracles, reaches into them.  The recurrence pipeline (moments, zeros,
rules) and the closed-form equilibrium layer run without the tanh-sinh
engine, directly or through another oscq module.  The mpc recurrence of
`MonicPolynomial` is an oracle: outside `moments`, which defines it, and
`verify`, no library module evaluates by it, and polynomial values come
from the root finder's fixed-point recurrence.  Likewise mpmath's J and Y are
oracles for `mpfun.besseljy_real`, the one route of the small-norm kernels
to them, and the general complex routes `parametrix.d1n` and `d2` are
oracles for the kernels' one real pass on the imaginary axis.  The root
finder's fixed-point frame is `zeros`' own: every other reader takes its
scale from `zeros.root_scale`.  Every library definition is used
somewhere in the source, the tests or the benchmark, and one outside
`verify` also in the library outside `verify`, in the benchmark or in
`oscq.__all__`: a route that only `verify` and the tests read belongs in
`verify`.  Every optional parameter of a numerical operation is set by
some library or benchmark call.  No library module reads the environment,
and a numerical operation takes its working precision from the caller or
from its own object.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve()
ROOT = HERE.parents[1]
SRC = ROOT / "src" / "oscq"
# every Python file that may use a library name; the package's re-exports
# and this file's own strings do not count as uses
USERS = sorted(p for d in ("src", "tests", "oscbench")
               for p in (ROOT / d).rglob("*.py")
               if p not in (SRC / "__init__.py", HERE))
# the users that are not tests: the library and the benchmark
CALLERS = [p for p in USERS if ROOT / "tests" not in p.parents]
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
NO_QUADRATURE = ("moments", "equilibrium", "zeros", "quadrule")
MPC_EVALUATORS = ("eval", "eval_with_deriv", "deriv_eval")
MPC_OWNERS = ("moments", "verify")   # the definitions and the oracles
MPMATH_JY = ("besselj", "bessely")
SZEGO_COMPLEX = ("d1n", "d2")     # the general mpc routes of D1 and D2
ENVIRONMENT = ("environ", "getenv", "putenv")
# the suites' and commands' precision defaults are documented CLI behaviour
NUMERICAL = [m for m in MODULES if m not in ("verify", "cli")]
# no numerical operation defaults its precision
PREC_DEFAULT_EXEMPT = set()


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


def test_library_never_evaluates_by_the_mpc_recurrence():
    reaching = {}
    for module in MODULES:
        if module in MPC_OWNERS:
            continue
        tree = ast.parse((SRC / f"{module}.py").read_text())
        used = sorted({node.attr for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and node.attr in MPC_EVALUATORS})
        if used:
            reaching[module] = used
    assert not reaching, f"{reaching} reach MonicPolynomial's mpc methods"


def _named(module: str, names):
    """The names among `names` that the module uses as a name, as an
    attribute or in an import."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    return sorted({node.id for node in ast.walk(tree)
                   if isinstance(node, ast.Name) and node.id in names}
                  | {node.attr for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute)
                     and node.attr in names}
                  | {a.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for a in node.names if a.name in names})


def test_small_norm_kernels_never_call_mpmath_j_or_y():
    used = _named("smallnorm", MPMATH_JY)
    assert not used, f"smallnorm reaches mpmath's {used}"


def test_small_norm_kernels_never_name_the_complex_szego_routes():
    named = _named("smallnorm", SZEGO_COMPLEX)
    assert not named, f"smallnorm names parametrix's {named}"


def _top_level_names(module: str):
    """The functions, classes and constants a module defines at top level,
    dunder names aside."""
    names = set()
    for node in ast.parse((SRC / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _uses(path, strings: bool = True):
    """The names a file uses: loaded names, attributes, imported names and,
    with strings, string constants that are identifiers (as in
    monkeypatch.setattr(module, "name", ...))."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.ImportFrom, ast.Import)):
            out.update(a.name.split(".")[-1] for a in node.names)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def test_every_library_definition_is_used():
    used = set().union(*(_uses(p) for p in USERS))
    unused = sorted(f"{m}.{name}" for m in MODULES
                    for name in _top_level_names(m) - used)
    assert not unused, f"defined but never used: {unused}"


def _exported():
    """The names of oscq.__all__, the package's public API."""
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_library_definition_outside_verify_has_a_library_user():
    # verify's routes are the tests' oracles, so a use there keeps nothing
    used = set().union(*(_uses(p) for p in CALLERS
                         if p != SRC / "verify.py")) | _exported()
    unused = sorted(f"{m}.{name}" for m in MODULES if m != "verify"
                    for name in _top_level_names(m) - used)
    assert not unused, f"used by verify and the tests alone: {unused}"


def _defaulted(module: str):
    """(qualified name, called name, positional index at a call, parameter)
    for every parameter with a default in the module: those of its
    functions and methods, and the fields of its dataclasses, which are
    parameters of the class's __init__; a method's self and an __init__'s
    class name are read off the call."""
    out = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child)
                if any("dataclass" in ast.unparse(d)
                       for d in child.decorator_list):
                    fields = [f for f in child.body
                              if isinstance(f, ast.AnnAssign)]
                    out.extend((f"{prefix}{child.name}", child.name, i,
                                f.target.id) for i, f in enumerate(fields)
                               if f.value is not None)
            elif isinstance(child, ast.FunctionDef):
                name = f"{prefix}{child.name}"
                called = cls.name if cls and child.name == "__init__" \
                    else child.name
                a = child.args
                pos = a.posonlyargs + a.args
                skip = 1 if cls is not None else 0
                first = len(pos) - len(a.defaults)
                out.extend((name, called, i - skip, pos[i].arg)
                           for i in range(first, len(pos)))
                out.extend((name, called, None, k.arg) for k, d
                           in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(child, f"{name}.", None)
            else:
                visit(child, prefix, cls)

    visit(ast.parse((SRC / f"{module}.py").read_text()), f"{module}.", None)
    return out


def _calls(path):
    """called name -> [(positional count, keyword names)] for every call in
    the file, by name or attribute; a *args or **kwargs call reads as one
    that passes every parameter (count and keywords None)."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        star = any(isinstance(a, ast.Starred) for a in node.args)
        keywords = {k.arg for k in node.keywords}
        out.setdefault(name, []).append(
            (None if star else len(node.args),
             None if None in keywords else keywords))
    return out


def test_every_optional_parameter_is_set_by_a_non_test_call():
    # verify and cli are the oracles and the commands; the mpc evaluators
    # of MonicPolynomial are oracles too
    calls = {}
    for path in CALLERS:
        for name, sites in _calls(path).items():
            calls.setdefault(name, []).extend(sites)
    unset = sorted(
        f"{qual}({param})" for m in NUMERICAL
        for qual, called, index, param in _defaulted(m)
        if called not in MPC_EVALUATORS
        and not any(count is None or keywords is None or param in keywords
                    or index is not None and count > index
                    for count, keywords in calls.get(called, ())))
    assert not unset, f"set by no library or benchmark call: {unset}"


def _prec_defaults(module: str):
    """The qualified names of the functions in the module whose parameter
    prec has a default other than None."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if isinstance(child, ast.FunctionDef):
                    a = child.args
                    pos = a.posonlyargs + a.args
                    pairs = list(zip(pos[len(pos) - len(a.defaults):],
                                     a.defaults))
                    pairs += zip(a.kwonlyargs, a.kw_defaults)
                    if any(p.arg == "prec" and d is not None
                           and not (isinstance(d, ast.Constant)
                                    and d.value is None) for p, d in pairs):
                        out.append(name)
                visit(child, name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse((SRC / f"{module}.py").read_text()), f"{module}.")
    return out


def test_numerical_modules_default_no_precision():
    # None stands for the object's own precision (MonicPolynomial.eval);
    # any other default is a precision no caller chose
    defaulted = set().union(*(_prec_defaults(m) for m in NUMERICAL))
    assert defaulted == PREC_DEFAULT_EXEMPT, \
        f"precision defaults: {sorted(defaulted - PREC_DEFAULT_EXEMPT)}, " \
        f"stale exemptions: {sorted(PREC_DEFAULT_EXEMPT - defaulted)}"


def test_only_zeros_names_the_fixed_point_guard():
    naming = [str(p.relative_to(ROOT)) for p in USERS
              if p != SRC / "zeros.py" and "FIXED_GUARD" in _uses(p, False)]
    assert not naming, f"{naming} name zeros.FIXED_GUARD; read root_scale"


@pytest.mark.parametrize("module", MODULES)
def test_library_reads_no_environment(module):
    used = _uses(SRC / f"{module}.py", False) & set(ENVIRONMENT)
    assert not used, f"{module} reads the environment through {used}"


def test_benchmark_tracer_finds_every_name_it_patches():
    """The benchmark's span tracer (`oscbench/spans.py`) patches library
    names by string: `FUNCTIONS`, `METHODS` and `POLY_METHODS`.  Entering
    and leaving `Tracer().patched()` once fails here, not in a traced
    benchmark run, when one of them is deleted or renamed.  Among them
    are the names that wait on a benchmark change before they can go:
    `mpfun.gamma_fn` and `recip_gamma`, `moments.hankel_det`,
    `smallnorm.j1_direct` and `j2_direct`, the oracles
    `bessel_ratio_bounds_check` and `eta_bound_check`, and the
    single-kernel wrappers `j1_modulus`, `j2_modulus`, `eta1_modulus` and
    `eta2_modulus`."""
    spec = importlib.util.spec_from_file_location(
        "oscbench_spans", ROOT / "oscbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, *_ in spans.FUNCTIONS + spans.METHODS:
        importlib.import_module(f"oscq.{module}")
    with spans.Tracer().patched():
        pass
