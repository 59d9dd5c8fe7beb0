"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil
import sys
import types

import pytest

import hiwin

MODULES = sorted(m.name for m in pkgutil.iter_modules(hiwin.__path__, "hiwin."))


def test_package_reexports_are_module_exports():
    # ``import hiwin`` fails on a dangling re-export; this also keeps every
    # re-exported name in its defining module's ``__all__``
    for name, obj in vars(hiwin).items():
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        assert name in sys.modules[obj.__module__].__all__, f"hiwin.{name}"


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__, f"{module} declares no __all__"
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
