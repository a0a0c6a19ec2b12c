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
