"""Memoization goes through functools.cache, and hall's caches all die with a lane width.

A module-level dict that a function writes is a hand-rolled memo: its own
get/miss/store block, with no cache_info() and no cache_clear().  Two are
kept on purpose: oracle._DVR_CENSUS_CACHE, whose hits depend on the
caller's budget, and hall._BINOMS, a table filled a whole triangle at a
time.  Every other memo is a function wrapped by functools.cache.

hall's packed values hold for one lane width only, so each cached function
defined in hall must be in the tuple that hall._widened clears when the
width doubles.
"""

import ast
import pathlib

import singzeta
from singzeta import hall

SRC = pathlib.Path(singzeta.__file__).parent

KEPT = {("oracle.py", "_DVR_CENSUS_CACHE"), ("hall.py", "_BINOMS")}


def _module_dicts(tree):
    """Names bound at module level to a dict display, comprehension or dict()."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            value = node.value
            if isinstance(value, (ast.Dict, ast.DictComp)) or (
                    isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "dict"):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def _written(function, names):
    """(line, name) of each write to one of names inside the function's body:
    a subscript store or delete, or a call of its update or setdefault."""
    found = []
    for node in ast.walk(function):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                and isinstance(node.value, ast.Name) and node.value.id in names):
            found.append((node.lineno, node.value.id))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("update", "setdefault")
              and isinstance(node.func.value, ast.Name) and node.func.value.id in names):
            found.append((node.lineno, node.func.value.id))
    return found


def _memo_dicts(trees):
    """(module, line, name) of each module-level dict written from a function
    body in the {module: tree} trees."""
    return sorted({(module, line, name)
                   for module, tree in trees.items()
                   for function in ast.walk(tree)
                   if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                   for line, name in _written(function, _module_dicts(tree))})


def test_no_module_dict_is_written_from_a_function():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(trees) >= 13
    found = _memo_dicts(trees)
    assert [(module, name) for module, _, name in found
            if (module, name) not in KEPT] == [], found
    # the two kept dicts are still written where the scan can see them
    assert {(module, name) for module, _, name in found} == KEPT


def test_the_write_scan_finds_each_form():
    code = ("_A = {}\n"
            "_B = dict()\n"
            "_C = {k: k for k in ()}\n"
            "_READ = {}\n"
            "def f(k):\n"
            "    _A[k] = 1\n"
            "    _B.update({k: 1})\n"
            "    g = lambda: _C.setdefault(k, 1)\n"
            "    local = {}\n"
            "    local[k] = _READ.get(k)\n"
            "    return g\n"
            "def h(k):\n"
            "    del _A[k]\n"
            "_A[0] = 0\n")
    assert _memo_dicts({"m.py": ast.parse(code)}) == [
        ("m.py", 6, "_A"), ("m.py", 7, "_B"), ("m.py", 8, "_C"), ("m.py", 13, "_A")]


def test_every_hall_cache_is_cleared_on_widening():
    cached = {name for name, value in vars(hall).items()
              if getattr(value, "__module__", None) == "singzeta.hall"
              and hasattr(value, "cache_clear")}
    assert cached == {fn.__name__ for fn in hall._PACKED_FUNCTIONS}
    assert all(getattr(hall, fn.__name__) is fn for fn in hall._PACKED_FUNCTIONS)
