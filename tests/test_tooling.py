import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "symldpc"


def test_library_has_no_assert_statements():
    # python -O strips asserts, so every check in the library must raise a typed error
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in src: " + ", ".join(found)
