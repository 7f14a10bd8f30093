"""Rules on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "dynq"


def _trees():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no library sources under {SRC}"
    return [(path.name, ast.parse(path.read_text(), filename=str(path)))
            for path in paths]


def test_no_assert_statements_in_library():
    # runtime guards raise real exceptions so they still run under python -O
    found = []
    for name, tree in _trees():
        found += [f"{name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in library code: {found}"


def test_threading_only_in_cache():
    # every cache is a bounded cache.Memo, which owns the only lock
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "threading" for m in mods) \
                    and name != "cache.py":
                found.append(f"{name}:{node.lineno}")
    assert not found, f"threading imported outside cache.py: {found}"


def test_fractions_only_in_cartan():
    # exact rationals live inside Weight; everything else reads offsets
    found = []
    for name, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            else:
                continue
            if "fractions" in (m.split(".")[0] for m in mods) \
                    and name != "cartan.py":
                found.append(f"{name}:{node.lineno}")
    assert not found, f"fractions imported outside cartan.py: {found}"


def test_no_module_level_empty_dict():
    # a module-level `{}` is an unbounded ad hoc cache; use cache.Memo
    found = []
    for name, tree in _trees():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = node.value
                empty = (isinstance(value, ast.Dict) and not value.keys) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "dict"
                    and not value.args and not value.keywords)
                if empty:
                    found.append(f"{name}:{node.lineno}")
    assert not found, f"module-level empty dicts: {found}"
