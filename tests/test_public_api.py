"""Every name a qcheat module exports in __all__, and every name the
benchmark's tracer wraps, exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import qcheat

MODULES = sorted(info.name for info in pkgutil.iter_modules(qcheat.__path__, "qcheat."))


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
