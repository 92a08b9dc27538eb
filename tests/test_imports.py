"""Every name a module of the package imports is used in that module, and
every private name it defines at module level is read there."""

import ast
from pathlib import Path

import pytest

import subhop

SOURCES = sorted(Path(subhop.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads. ``import a.b``
    is read through ``a.b``; a name listed in ``__all__`` is read."""
    tree = ast.parse(source)
    imported: list[str] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # every dotted prefix of a chain such as urllib.error.HTTPError
            parts = [node.attr]
            value = node.value
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                dotted = value.id
                for part in reversed(parts):
                    dotted += "." + part
                    used.add(dotted)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def orphaned_private_names(source: str) -> list[str]:
    """The module-level ``_name`` functions, classes and constants that
    ``source`` defines and never reads."""
    tree = ast.parse(source)
    defined: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined += [target.id for target in node.targets if isinstance(target, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.append(node.target.id)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        name for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_the_check_finds_an_unused_name():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport urllib.error\nimport urllib.request\n"
        "from json import dumps, loads as parse\n"
        "__all__ = ['dumps']\n"
        "def f(x: int) -> None:\n"
        "    return urllib.error.URLError(os.path.join(x))\n"
    )
    assert unused_imports(source) == ["urllib.request", "parse"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_orphaned_private_name():
    source = (
        "__all__ = []\n_LIMIT = 3\n_unused: int = 0\n"
        "class _Error(Exception):\n    pass\n"
        "class _Orphan:\n    pass\n"
        "def _helper():\n    raise _Error(_LIMIT)\n"
        "def _dead():\n    return _helper()\n"
        "def public():\n    return _helper()\n"
    )
    assert orphaned_private_names(source) == ["_unused", "_Orphan", "_dead"]


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_module_reads_every_private_name_it_defines(path):
    assert orphaned_private_names(path.read_text(encoding="utf-8")) == []
