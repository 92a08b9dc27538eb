"""Every name a module of the package imports is used in that module,
every private name it defines at module level is read there, every
public name it defines is read by the package or the benchmark, and
every exception class it defines is caught by some handler."""

import ast
from pathlib import Path

import pytest

import subhop

SOURCES = sorted(Path(subhop.__file__).parent.glob("*.py"))
# the code whose reads keep a public name in the package: not
# ``__init__.py``, which only re-exports, and not a test
READERS = [path for path in SOURCES if path.name != "__init__.py"] + [
    path for path in sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    if not path.name.startswith("test_")
]
# public names that nothing in READERS reads, each kept for a reason
UNREAD_ALLOWED = {"Embedding.of": "README: builds an Embedding for a user's embedder"}


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


def public_definitions(source: str) -> list[str]:
    """The public module-level functions and classes of ``source``, and
    the public methods of its public classes as ``Class.method``."""
    names: list[str] = []
    for node in ast.parse(source).body:
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not item.name.startswith("_")]
    return names


def names_read(source: str) -> set[str]:
    """Every name ``source`` loads and every attribute it reads; ``x.of``
    reads ``of`` of whatever ``x`` is."""
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def unread_public_names(definitions: list[str], read: set[str]) -> list[str]:
    return [name for name in definitions if name.rpartition(".")[2] not in read]


def _read_by_readers() -> set[str]:
    read: set[str] = set()
    for path in READERS:
        read |= names_read(path.read_text(encoding="utf-8"))
    return read


def test_the_check_finds_an_unread_public_name():
    source = (
        "def used():\n    return Kept().run()\n"
        "def unused():\n    pass\n"
        "class Kept:\n    def run(self):\n        pass\n"
        "    def idle(self):\n        pass\n"
        "    def __len__(self):\n        return 0\n"
        "class _Private:\n    def idle(self):\n        pass\n"
        "used()\n"
    )
    assert unread_public_names(public_definitions(source), names_read(source)) == [
        "unused", "Kept.idle"]


def test_every_public_name_is_read_by_the_package_or_the_benchmark():
    read = _read_by_readers()
    unread = [f"{path.name}: {name}" for path in SOURCES if path.name != "__init__.py"
              for name in unread_public_names(
                  public_definitions(path.read_text(encoding="utf-8")), read)
              if name not in UNREAD_ALLOWED]
    assert unread == []


def test_every_allowed_unread_name_is_defined_and_unread():
    defined = {name for path in SOURCES
               for name in public_definitions(path.read_text(encoding="utf-8"))}
    read = _read_by_readers()
    stale = [name for name in UNREAD_ALLOWED
             if name not in defined or not unread_public_names([name], read)]
    assert stale == []


def uncaught_classes(errors_source: str, sources: list[str]) -> list[str]:
    """The classes ``errors_source`` defines that no ``except`` clause in
    ``sources`` names, either directly or through a module-level tuple of
    ``errors_source`` (``except LLM_FAILURES``, ``except (*LLM_FAILURES,)``)."""
    tree = ast.parse(errors_source)
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    tuples = {
        target.id: {elt.id for elt in node.value.elts if isinstance(elt, ast.Name)}
        for node in tree.body if isinstance(node, ast.Assign) and isinstance(node.value, ast.Tuple)
        for target in node.targets if isinstance(target, ast.Name)
    }
    caught: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            for kind in kinds:
                if isinstance(kind, ast.Starred):
                    kind = kind.value
                name = kind.attr if isinstance(kind, ast.Attribute) else getattr(kind, "id", None)
                caught |= {name} | tuples.get(name, set())
    return [name for name in classes if name not in caught]


def test_the_check_finds_an_uncaught_exception_class():
    errors_source = (
        "class Base(Exception):\n    pass\n"
        "class Caught(Base):\n    pass\n"
        "class InTuple(Base):\n    pass\n"
        "class Starred(Base):\n    pass\n"
        "class Raised(Base):\n    pass\n"
        "GROUP = (InTuple,)\nSTARRED = (Starred,)\n"
    )
    sources = [
        "try:\n    f()\nexcept errors.Base:\n    pass\n"
        "try:\n    f()\nexcept (Caught, KeyError):\n    pass\n"
        "try:\n    f()\nexcept GROUP:\n    pass\n"
        "try:\n    f()\nexcept (ValueError, *STARRED):\n    pass\n"
        "try:\n    f()\nexcept:\n    raise Raised()\n"
    ]
    assert uncaught_classes(errors_source, sources) == ["Raised"]


def test_every_exception_class_is_caught_by_the_package():
    errors = Path(subhop.__file__).parent / "errors.py"
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert uncaught_classes(errors.read_text(encoding="utf-8"), sources) == []
