"""Every name a package or test module imports is used in that module, and
every package module imports only modules of earlier layers."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "superrep"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
_TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
# each module may import only modules before it
LAYERS = ["errors", "validation", "linalg", "scalars", "superalgebra", "enveloping", "groups",
          "functions", "crossed", "reps", "dsl", "catalog", "cli"]


def unused_imports(source: str) -> list[str]:
    """The names bound by the import statements of ``source`` that no other
    name in it reads; ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import numpy as np\nimport os.path\nfrom . import a, b as c\nprint(np, c)\n"
    assert unused_imports(source) == ["os (line 2)", "a (line 3)"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", _MODULES + _TESTS, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def package_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, relatively or as
    ``superrep.NAME``."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else (a.name for a in node.names))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("superrep"):
            out.update([node.module.split(".")[1]] if "." in node.module
                       else (a.name for a in node.names))
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("superrep."))
    return {name.split(".")[0] for name in out}


def test_package_imports_are_found():
    source = ("import numpy\nimport superrep.dsl\nfrom . import linalg\n"
              "from .crossed import x\nfrom superrep import reps\nfrom superrep.cli import main\n")
    assert package_imports(source) == {"dsl", "linalg", "crossed", "reps", "cli"}


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in _MODULES) == sorted(LAYERS)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.stem)
def test_a_module_imports_only_earlier_layers(path):
    earlier = LAYERS[:LAYERS.index(path.stem)]
    assert sorted(package_imports(path.read_text(encoding="utf-8")) - set(earlier)) == []
