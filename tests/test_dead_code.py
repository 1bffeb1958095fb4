"""Source hygiene: every private module-level function of the package has
a caller in the package, and every private name a module imports from a
sibling module is used there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "f2reglab"


def uncalled_private_functions(paths):
    """Module-level functions named `_name` (dunders aside) that no Name or
    Attribute node of the given sources mentions outside their own
    definition, as (file name, function name).  Imports and docstrings
    are not references, and neither is a function's use of itself."""
    trees = [(path, ast.parse(path.read_text(), str(path))) for path in paths]
    refs = [
        (node.id if isinstance(node, ast.Name) else node.attr, node)
        for _, tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    uncalled = []
    for path, tree in trees:
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not fn.name.startswith("_") or fn.name.startswith("__"):
                continue
            inside = {id(node) for node in ast.walk(fn)}
            if not any(name == fn.name and id(node) not in inside for name, node in refs):
                uncalled.append((path.name, fn.name))
    return uncalled


def unused_private_imports(paths):
    """Private names (`_name`, dunders aside) that a module imports from a
    sibling module (`from .x import _name`) and never mentions in a Name
    node, as (file name, name)."""
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            for alias in node.names:
                name = alias.asname or alias.name
                if name.startswith("_") and not name.startswith("__") and name not in names:
                    unused.append((path.name, name))
    return unused


def test_every_private_function_has_a_caller():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 1
    assert uncalled_private_functions(paths) == []


def test_a_function_named_only_in_docstrings_imports_or_itself_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""`_left` and `_used` are named here."""\n'
        "def _left(x):\n    return _left(x - 1) if x else 0\n\n"
        "def _used():\n    return 1\n\n"
        "def __getattr__(name):\n    raise AttributeError(name)\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import _left, _used\nimport a\n\n"
        "def public():\n    return _used() + a._used()\n"
    )
    assert uncalled_private_functions(sorted(tmp_path.glob("*.py"))) == [("a.py", "_left")]


def test_every_private_import_is_used():
    assert unused_private_imports(sorted(SRC.glob("*.py"))) == []


def test_a_private_import_named_only_in_docstrings_or_attributes_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""`_left` is named here."""\n'
        "from .b import _left, _used, _as as _renamed, public\n"
        "from b import _absolute\n"
        "from . import b\n\n"
        "def f():\n    return _used() + _renamed() + public() + b._left\n"
    )
    (tmp_path / "b.py").write_text("def _left():\n    return 0\n")
    assert unused_private_imports(sorted(tmp_path.glob("*.py"))) == [("a.py", "_left")]
