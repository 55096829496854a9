"""The library keeps no surface that only tests reach.

Every top-level function and class of the package, and every method of a
class that is not a dunder, must be named somewhere in the library outside
its own definition: as a name or an attribute anywhere in a module's AST,
the fields of f-strings included.  A re-export in ``__init__`` is not a
use.  A definition that only tests call belongs in the tests.
"""

import ast
from collections import defaultdict
from pathlib import Path

import qwhitney

SOURCE = Path(qwhitney.__file__).parent


def definitions(tree):
    """(qualified name, node) of each top-level function and class of a
    module, and of each method of its classes that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, defs[:2])
                        and not (sub.name.startswith("__")
                                 and sub.name.endswith("__"))):
                    yield f"{node.name}.{sub.name}", sub


def unreferenced(sources: dict) -> list:
    """``"module: qualified name"`` of each definition of the modules of
    ``sources`` (file name -> text) that no Name or Attribute node of a
    module other than ``__init__.py`` names outside the definition."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    uses = defaultdict(list)
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
    found = []
    for name, tree in trees.items():
        for qualname, node in definitions(tree):
            own = set(map(id, ast.walk(node)))
            if all(id(use) in own
                   for use in uses[qualname.rpartition(".")[2]]):
                found.append(f"{name}: {qualname}")
    return found


def test_every_definition_has_a_library_reference():
    sources = {path.name: path.read_text()
               for path in sorted(SOURCE.glob("*.py"))}
    assert "qcore.py" in sources
    assert unreferenced(sources) == []


def test_the_scan_finds_what_only_tests_would_call():
    # recursion and a re-export are not uses, and a dunder is not a
    # definition; a field of an f-string in a sibling method is a use
    sources = {
        "__init__.py": "from .mod import alone, Kept\n",
        "mod.py": (
            "def alone(n):\n"
            "    return alone(n - 1) if n else 0\n"
            "def helper():\n"
            "    return 1\n"
            "class Kept:\n"
            "    def __repr__(self):\n"
            "        return f'{self.shown} {helper()}'\n"
            "    @property\n"
            "    def shown(self):\n"
            "        return 2\n"
            "    def hidden(self):\n"
            "        return 3\n"
            "class Unused:\n"
            "    pass\n"
            "x = Kept()\n"),
    }
    assert unreferenced(sources) == ["mod.py: alone", "mod.py: Kept.hidden",
                                     "mod.py: Unused"]
