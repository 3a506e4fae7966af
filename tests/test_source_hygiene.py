"""Every module of the package uses every name it imports, and every
module-level function and class of the package is read somewhere.

A name left behind when code moves between modules, or a helper that only
its own unit test calls, is found here with the standard library's `ast`
alone.  `__init__.py` is exempt from the import check: its imports are the
package's public names.  A name counts as used where it is read anywhere
in the module, string annotations included.  A definition counts as read
where its own module reads it outside its body, another package module
reads or imports it, `__init__.py` exports it, or a `perfbench` script
names it, in code or in a string such as a traced path.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "treerep"
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


def names_read(node: ast.AST) -> set[str]:
    """Names and attributes `node` loads, names it imports, and the same
    inside any string constant that parses as an expression."""
    read = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            read.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            read.update(alias.name for alias in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            try:
                read |= names_read(ast.parse(n.value, mode="eval"))
            except SyntaxError:
                continue
    return read


def unread_definitions(modules: dict[str, str], outside: list[str]) -> list[str]:
    """"module.name" of each module-level function or class of `modules`
    (module name -> source) that is read neither by its own module outside
    its definition, nor by another module, nor by an `outside` source."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    read_by = {name: names_read(tree) for name, tree in trees.items()}
    read_outside = set().union(*(names_read(ast.parse(source)) for source in outside))
    unread = []
    for module, tree in trees.items():
        read_elsewhere = read_outside.union(*(r for m, r in read_by.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            rest = [other for other in tree.body if other is not node]
            if node.name not in read_elsewhere.union(*map(names_read, rest)):
                unread.append(f"{module}.{node.name}")
    return sorted(unread)


def test_the_checker_finds_an_unread_definition():
    modules = {
        "a": (
            "def used():\n    return 1\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n"
            "class Orphan:\n    pass\n\n"
            "def exported():\n    pass\n\n"
            "def traced():\n    pass\n\n"
            "def annotated() -> 'list[Orphan]':\n    return used()\n"
        ),
        "b": "from .a import annotated\n\nX = annotated()\n",
        "__init__": "from .a import exported\n",
    }
    outside = ['TARGETS = [("a", "traced", "a.traced")]\n']
    assert unread_definitions(modules, outside) == ["a.recursive"]
    # a read from an unread definition still counts
    del modules["b"]
    assert unread_definitions(modules, outside) == ["a.annotated", "a.recursive"]


def test_every_definition_is_read():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    outside = [path.read_text() for path in (ROOT / "perfbench").glob("*.py")]
    assert unread_definitions(modules, outside) == []
