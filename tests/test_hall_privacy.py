"""hall's packed Hall coefficients stay inside hall.

The packed (x, e, b) format and its widening rule (no packed value outlives
a lane doubling) bind hall alone, so no other module of the package names a
private attribute of hall.
"""

import ast
import pathlib

import singzeta

SRC = pathlib.Path(singzeta.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _hall_private_names(tree):
    """(line, text) of each private hall name the module tree reads."""
    aliases = {"hall", "hall_mod"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("hall", "singzeta.hall"):
            found += [(node.lineno, "from %s import %s" % (node.module, a.name))
                      for a in node.names if _private(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "singzeta"):
            aliases.update(a.asname or a.name for a in node.names if a.name == "hall")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, "%s.%s" % (node.value.id, node.attr)))
    return sorted(found)


def test_no_module_but_hall_names_a_private_hall_attribute():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "hall.py")
    assert len(modules) >= 12
    found = ["%s:%d: %s" % (path.name, line, text)
             for path in modules
             for line, text in _hall_private_names(ast.parse(path.read_text()))]
    assert found == []


def test_the_scan_finds_each_form():
    code = ("from . import hall as h\nfrom .hall import _decode, hall_box\n"
            "h._same(a, b)\nhall_mod._W\nhall.__name__\nh.hall_skew\n")
    assert [text for _, text in _hall_private_names(ast.parse(code))] == [
        "from hall import _decode", "h._same", "hall_mod._W"]
