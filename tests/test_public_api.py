"""Every name a qcheat module exports in __all__, and every name the
benchmark's tracer wraps, exists; every export, and every public method and
property of an exported class, has a caller or is a listed reference route;
no module imports scipy, which only the tests use, and importing the CLI or
the numeric modules loads neither scipy nor mpmath."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcheat

MODULES = sorted(info.name for info in pkgutil.iter_modules(qcheat.__path__, "qcheat."))
ROOT = Path(__file__).resolve().parents[1]

# Exports, and methods named "Class.method", that nothing in src/qcheat/ or
# perfbench/ calls, kept on purpose as independent checks of the production
# path (the tests call them).
REFERENCE_ROUTES = {
    "group_mul": "the exact group law; the kernel's base-point symmetry is checked through it",
    "group_inverse": "group inverse of that law, for the same symmetry checks",
    "action_function_matrix": "the action phi as a matrix function, against the kernel's a(rho)",
    "volume_element_matrix": "W(tau) as a determinant, against the kernel's radial weight",
    "normalization_integral": "mass of p(t, 0, .), acceptance criterion 4",
    "semigroup_convolution_check": "Monte Carlo semigroup identity at the origin, acceptance criterion 4",
    "frame_data_from_spec": "the group's own frame as Popp input, acceptance criterion 5",
    "lie_bracket": "the coordinate bracket of the graded bracket tests and of the popp divergence route",
    "moment_exemplar": "one concrete pattern per moment class, for numeric moment estimates",
    "euler_field": "the grading generator P of those eigenvalue checks",
    "lie_derivative_form": "L_P on forms, the eigenvalue check of forms and coframe terms",
    "SpectrumFile.dump": "the text form SpectrumFile.parse reads, for the parser's round-trip checks",
}


def test_modules_found():
    assert "qcheat.kernel" in MODULES and "qcheat.mc" in MODULES


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    module = importlib.import_module(modname)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, "%s.__all__ names undefined %s" % (modname, missing)


def _tracer_targets():
    """FUNCTIONS and METHODS of perfbench/tracing.py, read as literals (not imported)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("FUNCTIONS", "METHODS"):
                found[name] = ast.literal_eval(node.value)
    return found["FUNCTIONS"], found["METHODS"]


def test_traced_names_resolve():
    """Every function and method the benchmark's tracer wraps still exists."""
    functions, methods = _tracer_targets()
    missing = []
    for modname, names in functions.items():
        module = importlib.import_module(modname)
        missing += ["%s.%s" % (modname, n) for n in names if not callable(getattr(module, n, None))]
    for (modname, clsname), meths in methods.items():
        cls = getattr(importlib.import_module(modname), clsname, None)
        owned = vars(cls) if isinstance(cls, type) else {}
        missing += ["%s.%s.%s" % (modname, clsname, m) for m in meths if m not in owned]
    assert functions and methods
    assert not missing, "traced names undefined: %s" % missing


def _referenced_names():
    """Names read, imported or taken as attributes in src/qcheat/ and perfbench/.

    A name used only inside the top-level def or class that defines it does
    not count; neither do strings such as __all__ entries.
    """
    paths = sorted((ROOT / "src" / "qcheat").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    found = set()
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    found.add(name)
    return found


def _public_api():
    """{qualified name: the name a caller writes}: every __all__ name, and
    "Class.member" for each public method or property an exported class defines."""
    api = {}
    for modname in MODULES:
        module = importlib.import_module(modname)
        for name in getattr(module, "__all__", ()):
            api[name] = name
            obj = getattr(module, name)
            if not (isinstance(obj, type) and obj.__module__ == modname):
                continue
            for member, value in vars(obj).items():
                routine = inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod))
                if routine and not member.startswith("_"):
                    api["%s.%s" % (name, member)] = member
    return api


def test_every_export_has_a_caller():
    """No __all__ name, and no public method or property of an exported class,
    is API that only tests use, unless it is a listed reference route."""
    api = _public_api()
    referenced = _referenced_names()
    routes = set(REFERENCE_ROUTES)
    uncalled = {qual for qual, name in api.items() if name not in referenced}
    assert not sorted(uncalled - routes), "public API without a caller in src/qcheat/ or perfbench/"
    assert not sorted(routes - set(api)), "REFERENCE_ROUTES names that are not public API"
    assert not sorted(routes - uncalled), "REFERENCE_ROUTES names that have a caller; drop them from the set"


def test_no_module_imports_scipy():
    """scipy is a test dependency only: no module under src/qcheat/ imports it,
    at the top or inside a function."""
    found = []
    for path in sorted((ROOT / "src" / "qcheat").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += ["%s:%d" % (path.name, node.lineno) for name in names if name.split(".")[0] == "scipy"]
    assert not found, "scipy imported at %s" % found


def _loaded_at_import(package):
    """The modules of package that importing the CLI and the numeric modules loads, in a fresh interpreter."""
    code = (
        "import sys, qcheat.cli, qcheat.kernel, qcheat.invariants, qcheat.mc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == %r))" % package
    )
    src = str(Path(qcheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_cli_and_numeric_modules_import_no_scipy():
    """Importing the CLI and the numeric modules loads no scipy module: it is
    not a runtime dependency, and at import time it would add about 20 MB to
    every command's peak memory."""
    assert _loaded_at_import("scipy") == "[]"


def test_cli_and_numeric_modules_import_no_mpmath():
    """mpmath serves only the zeta-series oracles, which import it when
    called: importing the CLI, kernel, invariants or mc loads none of it."""
    assert _loaded_at_import("mpmath") == "[]"
