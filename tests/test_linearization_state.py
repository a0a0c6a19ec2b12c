"""AST check that a ``Linearization``'s state is written only in ``lower.py``:
no other module of ``src/`` assigns, augments or deletes an attribute that
``Linearization`` keeps (its stencil ``_m`` and row terms among them), by a
statement or by ``setattr``.  The engines ask ``lower.py`` for a view or an
assembly; the rule for which rows a view shares lives in one place.

The attribute names come from ``lower.py``'s own ``Linearization`` class, so
the check follows the class.  It goes by name: a write to an attribute of that
name on any object outside ``lower.py`` is reported."""

import ast
from pathlib import Path

import bilevelreg

SRC = Path(bilevelreg.__file__).resolve().parent
SETTERS = {"setattr", "__setattr__", "delattr", "__delattr__"}


def _written(tree, on_a_name=False):
    """(attribute name, line) of every attribute a statement assigns,
    augments or deletes, and of every ``setattr``-like call with a constant
    name; with ``on_a_name``, only attributes of a bare name (``self._m``,
    not ``self._m.flags.writeable``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if not on_a_name or isinstance(node.value, ast.Name):
                yield node.attr, node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if (name in SETTERS and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)):
                yield node.args[1].value, node.lineno


def _linearization_attributes():
    tree = ast.parse((SRC / "lower.py").read_text())
    cls = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "Linearization")
    return {name for name, _ in _written(cls, on_a_name=True)}


def test_the_check_sees_every_form():
    probe = (
        "lin._m = None\n"
        "view.x, view._terms = x, []\n"
        "lin._m += 1\n"
        "setattr(lin, '_m', m)\n"
        "object.__setattr__(lin, '_stacked', True)\n"
        "del lin._m\n"
        "lin.hess_vec(v)._m\n"
        "m = lin._m\n"
        "getattr(lin, '_m')\n"
    )
    found = sorted(_written(ast.parse(probe)), key=lambda hit: hit[1])
    assert found == [("_m", 1), ("x", 2), ("_terms", 2), ("_m", 3), ("_m", 4),
                     ("_stacked", 5), ("_m", 6)]


def test_the_attribute_names_come_from_the_class():
    assert _linearization_attributes() == {"problem", "_grid", "x", "_stacked",
                                           "_terms", "_m"}


def test_only_lower_writes_a_linearization():
    names = _linearization_attributes()
    found = [f"{path.name}:{line} .{name}"
             for path in sorted(SRC.glob("*.py")) if path.name != "lower.py"
             for name, line in _written(ast.parse(path.read_text())) if name in names]
    assert not found, f"a Linearization attribute written outside lower.py: {found}"
