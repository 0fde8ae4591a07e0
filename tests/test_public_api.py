"""Every name a qcheat module exports in __all__ exists."""

import importlib
import pkgutil

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
