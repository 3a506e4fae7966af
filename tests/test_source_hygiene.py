"""Every module of the package uses every name it imports.

A name left behind when code moves between modules is found here with the
standard library's `ast` alone.  `__init__.py` is exempt: its imports are
the package's public names.  A name counts as used where it is read
anywhere in the module, string annotations included.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "treerep"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "StepFunction" or "list[Cylinder]"
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_the_checker_finds_an_unused_import():
    source = "import os\nfrom typing import Any, Mapping\n\ndef f(x: 'Mapping') -> int:\n    return 1\n"
    assert unused_imports(source) == ["Any (line 2)", "os (line 1)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text()) == []
