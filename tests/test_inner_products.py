"""AST check that the engines take grid inner products through one helper:
``lower.py`` and ``hypergrad.py`` call no ``np.vecdot`` or ``np.vdot``
outside ``Grid.dots``, so a cheaper inner product lands in every product at
once.  ``LowerProblem.cost``'s scalar ``vdot`` is the one exception."""

import ast
from pathlib import Path

import bilevelreg

SRC = Path(bilevelreg.__file__).resolve().parent
ENGINES = ("lower.py", "hypergrad.py")
DOTS = {"vecdot", "vdot"}
ALLOWED = {("lower.py", "LowerProblem.cost")}


def _dot_calls(node, scope=""):
    """(enclosing qualified name, line) of every call to ``np.vecdot``,
    ``np.vdot`` (under ``np`` or ``numpy``) or a bare imported one."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _dot_calls(child, f"{scope}.{child.name}" if scope else child.name)
            continue
        if isinstance(child, ast.Call):
            func = child.func
            if isinstance(func, ast.Attribute):
                hit = (func.attr in DOTS and isinstance(func.value, ast.Name)
                       and func.value.id in ("np", "numpy"))
            else:
                hit = isinstance(func, ast.Name) and func.id in DOTS
            if hit:
                yield scope, child.lineno
        yield from _dot_calls(child, scope)


def test_the_check_sees_every_form():
    probe = (
        "np.vecdot(a, b)\n"
        "class G:\n"
        "    def f(self):\n"
        "        return numpy.vdot(a, b)\n"
        "def g():\n"
        "    return vecdot(a, b) + grid.dots(a, b)\n"
    )
    assert list(_dot_calls(ast.parse(probe))) == [("", 1), ("G.f", 4), ("g", 6)]


def test_engines_take_inner_products_through_grid_dots():
    found = {}
    for name in ENGINES:
        for scope, line in _dot_calls(ast.parse((SRC / name).read_text())):
            found.setdefault((name, scope), []).append(line)
    missing = ALLOWED - set(found)
    assert not missing, f"the check no longer sees these calls: {missing}"
    elsewhere = {key: lines for key, lines in found.items() if key not in ALLOWED}
    assert not elsewhere, f"np.vecdot or np.vdot outside Grid.dots: {elsewhere}"
