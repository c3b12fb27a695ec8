"""Guards on the package's public names: a name deleted from a module must
leave its `__all__` and the package's re-exports with it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import jetform

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(jetform.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists(name):
    module = importlib.import_module("jetform." + name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, missing


def test_package_imports_only_names_its_modules_export():
    tree = ast.parse(Path(jetform.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module("jetform." + node.module)
        exported = getattr(module, "__all__", ())
        stray = [alias.name for alias in node.names if alias.name not in exported]
        assert not stray, (node.module, stray)
