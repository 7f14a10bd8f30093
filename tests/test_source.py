"""Rules on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dynq"


def test_no_assert_statements_in_library():
    # runtime guards raise real exceptions so they still run under python -O
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no library sources under {SRC}"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in library code: {found}"
