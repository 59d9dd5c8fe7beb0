"""Every exported name resolves, so a deletion cannot leave a dangling
export, and no module reads another module's private names."""

import ast
import importlib
import pkgutil
import sys
import types
from pathlib import Path

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


def _private_reads(tree: ast.Module) -> list[str]:
    """``from .mod import _name`` and ``alias._name`` reads, where ``alias``
    is a hiwin module bound by an import; a public name imported under a
    private alias (``softmax as _softmax``) is not one."""
    submodules = {name.rsplit(".", 1)[1] for name in MODULES}
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hiwin")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(f"from {'.' * node.level}{node.module or ''} import {alias.name}")
                if node.module in (None, "hiwin") and alias.name in submodules:
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname for a in node.names if a.name.startswith("hiwin.") and a.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    # a decision that two modules must know belongs behind one public name
    offenders = [
        f"{path.name}: {read}"
        for path in sorted(Path(hiwin.__file__).parent.glob("*.py"))
        for read in _private_reads(ast.parse(path.read_text()))
    ]
    assert not offenders, offenders


DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_imports_resolve(demo):
    # the demos are parsed, not run: a deleted public name they import fails here
    missing = []
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "hiwin":
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(mod, a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hiwin":
                    importlib.import_module(alias.name)
    assert not missing, missing


def _reads(tree: ast.Module) -> set[str]:
    """The names a module reads, as loaded names and as attributes, leaving
    out each top-level function's or class's reads of its own name."""
    found = set()
    for top in tree.body:
        reads = {node.id for node in ast.walk(top) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        reads |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
        found |= reads - {getattr(top, "name", None)}
    return found


def test_every_export_has_a_caller_outside_the_tests():
    # code the library never calls is deleted, not tested; the package
    # re-export is an import, not a read, so it keeps no name alive
    root = Path(__file__).parent.parent
    callers = [
        path
        for path in sorted((root / "src" / "hiwin").glob("*.py")) + sorted((root / "perfbench").glob("*.py")) + DEMOS
        if not path.name.startswith("test_")
    ]
    reads = set().union(*(_reads(ast.parse(path.read_text())) for path in callers))
    unused = [f"{m}.{name}" for m in MODULES for name in importlib.import_module(m).__all__ if name not in reads]
    assert not unused, unused
