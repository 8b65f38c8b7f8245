"""Memoization goes through functools.cache, and no module keeps mutable state by rebinding.

A module-level dict that a function writes is a hand-rolled memo: its own
get/miss/store block, with no cache_info() and no cache_clear().  One is
kept on purpose: oracle._DVR_CENSUS_CACHE, whose hits depend on the
caller's budget.  Every other memo is a function wrapped by functools.cache.

hall's packed values hold for one lane width only, so each cached function
defined in hall takes that width, w, as its last argument: an entry is keyed
on the width it was packed at, and none is read at another.  No function
rebinds a module name with a global statement.
"""

import ast
import inspect
import pathlib

import singzeta
from singzeta import hall

SRC = pathlib.Path(singzeta.__file__).parent

KEPT = {("oracle.py", "_DVR_CENSUS_CACHE")}


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


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_no_module_dict_is_written_from_a_function():
    trees = _trees()
    assert len(trees) >= 13
    found = _memo_dicts(trees)
    assert [(module, name) for module, _, name in found
            if (module, name) not in KEPT] == [], found
    # the kept dict is still written where the scan can see it
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


def test_no_global_statement():
    found = ["%s:%d" % (module, node.lineno) for module, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Global)]
    assert found == []


def test_every_hall_cache_is_keyed_on_the_lane_width():
    cached = {name: value for name, value in vars(hall).items()
              if getattr(value, "__module__", None) == "singzeta.hall"
              and hasattr(value, "cache_clear")}
    assert set(cached) == {"_binoms", "_skew_packed", "_times_columns",
                           "_column_inverse", "_pair_packed"}
    assert [name for name, fn in cached.items()
            if list(inspect.signature(fn).parameters)[-1] != "w"] == []
