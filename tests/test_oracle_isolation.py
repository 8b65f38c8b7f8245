"""The closed forms do not lean on the brute-force oracle.

The oracle is the independent ground truth the closed forms are checked
against, so the modules that compute them (the rings, partitions, series,
Hall polynomials and Quot numerators) import nothing from it.  The modules
that compare the two sides (acceptance, clzeta's checks, the CLI) may.
"""

import ast
import pathlib

import singzeta

SRC = pathlib.Path(singzeta.__file__).parent
CLOSED_FORM_MODULES = ("laurent", "packed", "partitions", "series", "hall", "quotzeta")


def _oracle_imports(tree):
    """(line, text) of each import of the oracle module in the module tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("oracle", "singzeta.oracle"):
                found.append((node.lineno, "from %s import ..." % node.module))
            elif node.module in (None, "singzeta"):
                found += [(node.lineno, "from %s import oracle" % (node.module or "."))
                          for a in node.names if a.name == "oracle"]
        elif isinstance(node, ast.Import):
            found += [(node.lineno, "import %s" % a.name)
                      for a in node.names if a.name == "singzeta.oracle"]
    return sorted(found)


def test_no_closed_form_module_imports_the_oracle():
    found = ["%s.py:%d: %s" % (name, line, text)
             for name in CLOSED_FORM_MODULES
             for line, text in _oracle_imports(ast.parse((SRC / (name + ".py")).read_text()))]
    assert found == []


def test_the_scan_finds_each_form():
    code = ("from .oracle import DEFAULT_BUDGET\nfrom . import oracle as o, hall\n"
            "import singzeta.oracle\nfrom singzeta.oracle import _walk\n"
            "from .hall import oracle_like\nimport oracle_free\n")
    assert [text for _, text in _oracle_imports(ast.parse(code))] == [
        "from oracle import ...", "from . import oracle", "import singzeta.oracle",
        "from singzeta.oracle import ..."]
