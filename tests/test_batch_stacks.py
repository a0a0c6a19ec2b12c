"""AST check that a batch stays a stack: no code in ``src/`` builds one
``LowerProblem`` or ``Linearization`` per sample in a comprehension, where
one problem on the stacked samples and its row views would do."""

import ast
from pathlib import Path

import bilevelreg

SRC = Path(bilevelreg.__file__).resolve().parent
PER_ROW = {"LowerProblem", "Linearization"}
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _per_row_builds(tree):
    """Line numbers of the LowerProblem and Linearization calls that sit
    inside a comprehension."""
    return sorted({node.lineno
                   for comp in ast.walk(tree) if isinstance(comp, COMPREHENSIONS)
                   for node in ast.walk(comp)
                   if isinstance(node, ast.Call) and _called_name(node) in PER_ROW})


def test_the_check_sees_comprehensions():
    probe = (
        "[LowerProblem(A, y, t) for y in ys]\n"
        "{j: lower.Linearization(p, x) for j, p in enumerate(ps)}\n"
        "list(Linearization(p, x) for p in ps)\n"
        "LowerProblem(A, np.stack([y for y in ys]), t)\n"
        "[lin._rows(j) for j in range(3)]\n"
    )
    assert _per_row_builds(ast.parse(probe)) == [1, 2, 3]


def test_no_problem_or_linearization_per_sample():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _per_row_builds(ast.parse(path.read_text()))]
    assert not found, f"LowerProblem or Linearization built in a comprehension: {found}"
