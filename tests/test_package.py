import ast
import inspect
from pathlib import Path

import pytest

import cfglmm

_MODULES = sorted(p for p in Path(cfglmm.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_all_names_resolve():
    # a stale entry breaks ``from cfglmm import *``
    missing = [name for name in cfglmm.__all__ if not hasattr(cfglmm, name)]
    assert missing == []
    assert len(set(cfglmm.__all__)) == len(cfglmm.__all__)


def test_public_names_documented():
    """Every public function and class has a docstring of its own, not the
    signature that ``dataclass`` writes for a class without one."""
    undocumented = [
        name
        for name in cfglmm.__all__
        if (inspect.isfunction(obj := getattr(cfglmm, name)) or inspect.isclass(obj))
        and (not obj.__doc__ or obj.__doc__.startswith(f"{obj.__name__}("))
    ]
    assert undocumented == []


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a module imports is read somewhere in it (``__init__.py``
    is left out: its imports are the package's re-exports)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
