"""Every private helper of the package has a caller in the package.

A single-underscore function or method that only tests call is test code
left in the library: it belongs in the tests, next to what it checks.  So
each one defined in src/singzeta must be named, as an ast.Name or an
ast.Attribute, by code of the package outside its own body.
"""

import ast
import pathlib
from collections import Counter

import singzeta

SRC = pathlib.Path(singzeta.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _names(tree):
    """Counter of the names the tree reads, as ast.Name ids and ast.Attribute attrs."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _uncalled(trees):
    """(module, line, name) of each private function or method defined in the
    {module: tree} trees that no code outside its own body names."""
    names = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted((module, node.lineno, node.name)
                  for module, tree in trees.items() for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and _private(node.name) and names[node.name] == _names(node)[node.name])


def test_every_private_helper_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(trees) >= 13
    assert _uncalled(trees) == []


def test_the_scan_finds_each_form():
    code = ("def _used(x): return x\n"
            "def _recursive(n): return _recursive(n - 1) if n else 0\n"
            "def _unused(): return _used(1)\n"
            "class C:\n"
            "    def _method(self): return self._helper()\n"
            "    def _helper(self): return 0\n"
            "    def __len__(self): return 0\n"
            "def public(): return 0\n")
    assert _uncalled({"m.py": ast.parse(code)}) == [
        ("m.py", 2, "_recursive"), ("m.py", 3, "_unused"), ("m.py", 5, "_method")]
