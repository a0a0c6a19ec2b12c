"""AST checks that keep unused surface out of ``src/``: every dataclass field
needs a reader, every public method a caller, and every imported name a
reader in its module."""

import ast
from pathlib import Path

import bilevelreg

SRC = Path(bilevelreg.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
READERS = (SRC, TESTS, TESTS.parent / "perfbench")


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else target.id
        if name == "dataclass":
            return True
    return False


def _dataclass_fields(tree):
    """(class name, field name) of every annotated field of a @dataclass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def _attribute_reads(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_dataclass_field_has_a_reader():
    fields = [
        field
        for path in sorted(SRC.glob("*.py"))
        for field in _dataclass_fields(ast.parse(path.read_text()))
    ]
    assert ("TraceRecord", "wall_ms") in fields, "the check no longer sees fields"
    reads = set()
    for root in READERS:
        for path in sorted(root.rglob("*.py")):
            reads |= _attribute_reads(ast.parse(path.read_text()))
    unread = [f"{cls}.{name}" for cls, name in fields if name not in reads]
    assert not unread, f"dataclass fields that nothing reads: {unread}"


# Public methods kept with no caller in the program, each with its reason.
UNCALLED_API = {
    ("LowerProblem", "cost"): "the paper's lower cost Phi; the tests' finite-"
                              "difference oracle for grad_x and descent check",
    ("LowerProblem", "regularity_report"): "the regularity constants (mu and the "
                                           "Lipschitz constants) of the paper's "
                                           "running example",
}


def _public_methods(tree):
    """(class name, method name) of every public method of a public
    module-level class, properties included."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for stmt in node.body:
                if (isinstance(stmt, ast.FunctionDef)
                        and not stmt.name.startswith("_")):
                    yield node.name, stmt.name


def test_every_public_method_has_a_caller():
    methods = [
        method
        for path in sorted(SRC.glob("*.py"))
        for method in _public_methods(ast.parse(path.read_text()))
    ]
    assert ("Linearization", "jac_columns") in methods, "the check no longer sees methods"
    # tests do not count as callers: a method only tests call is not program
    reads = set()
    for root in (SRC, TESTS.parent / "perfbench"):
        for path in sorted(root.rglob("*.py")):
            reads |= _attribute_reads(ast.parse(path.read_text()))
    uncalled = [f"{cls}.{name}" for cls, name in methods
                if name not in reads and (cls, name) not in UNCALLED_API]
    assert not uncalled, f"public methods nothing in src/ or perfbench/ calls: {uncalled}"
    stale = [f"{cls}.{name}" for cls, name in UNCALLED_API
             if (cls, name) not in methods or name in reads]
    assert not stale, f"allowlisted methods that are gone or now called: {stale}"


def _unread_imports(tree):
    """Names that ``tree`` imports and never reads, ``__future__`` aside."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    reads = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - reads)


def test_every_import_is_read():
    probe = "from __future__ import annotations\nimport os, a.b\nfrom c import d as e\nos"
    assert _unread_imports(ast.parse(probe)) == ["a", "e"], "the check sees no imports"
    # the package's __init__ imports to re-export
    unread = {path.name: names for path in sorted(SRC.glob("*.py"))
              if path.name != "__init__.py"
              and (names := _unread_imports(ast.parse(path.read_text())))}
    assert not unread, f"imported names that nothing in their module reads: {unread}"
