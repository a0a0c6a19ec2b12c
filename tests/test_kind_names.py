"""AST checks that keep each kind name in one home: ``data.py`` reads every
key that picks a variant through ``_Section.kind``, which names the key and
every choice, and no class in ``losses.py`` carries its config kind."""

import ast
from pathlib import Path

import bilevelreg

SRC = Path(bilevelreg.__file__).resolve().parent

# keys that pick a variant; "potential" is one in the params file only,
# where load_params reads it
KIND_KEYS = {"kind", "generator"}
PARAMS_KIND_KEYS = {"potential"}


def _string_key_calls(tree, method):
    """(function name, key) of every ``<x>.method("key", ...)`` call in each
    function of ``tree``."""
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == method and node.args
                        and isinstance(node.args[0], ast.Constant)):
                    yield func.name, node.args[0].value


def test_every_kind_goes_through_the_reader():
    tree = ast.parse((SRC / "data.py").read_text())
    bare = [f"{func}: take({key!r})" for func, key in _string_key_calls(tree, "take")
            if key in KIND_KEYS or (func == "load_params" and key in PARAMS_KIND_KEYS)]
    assert not bare, f"kind keys read without _Section.kind: {bare}"
    routed = sorted(key for _, key in _string_key_calls(tree, "kind"))
    assert routed == ["generator"] + ["kind"] * 6 + ["potential"], routed


def test_no_loss_class_carries_its_kind():
    tree = ast.parse((SRC / "losses.py").read_text())
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert "SureMCLoss" in {cls.name for cls in classes}, "the check no longer sees classes"
    carried = [cls.name for cls in classes for stmt in cls.body
               if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
               and stmt.target.id == "kind"]
    assert not carried, f"loss classes with a kind field: {carried}"
