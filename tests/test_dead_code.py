"""Source hygiene: every private module-level function of the package has
a caller in the package, every private name a module imports from a
sibling module is used there, each module-level function name is
defined in one module only, the check that an object lives in a
table's F2^n is written once, and only `reports.py` writes JSON."""

import ast
from collections import defaultdict
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


# The functions that may raise a DimensionMismatchError naming the table
# ("table n=..."): the one check for cosets, subspaces and xi families,
# and the one for characters and translates, which may be ints.
TABLE_CHECKS = {"_check_n", "_checked_bits"}


def table_checks_outside(paths):
    """`raise DimensionMismatchError(...)` statements whose message holds
    "table n=" in a function not in TABLE_CHECKS (or at module level), as
    (file name, enclosing function name or None)."""
    found = []

    def visit(node, path, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        call = node.exc if isinstance(node, ast.Raise) else None
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "DimensionMismatchError"
            and any(isinstance(c, ast.Constant) and "table n=" in str(c.value)
                    for arg in call.args for c in ast.walk(arg))
            and fn not in TABLE_CHECKS
        ):
            found.append((path.name, fn))
        for child in ast.iter_child_nodes(node):
            visit(child, path, fn)

    for path in paths:
        visit(ast.parse(path.read_text(), str(path)), path, None)
    return found


def shared_function_names(paths):
    """Module-level function names defined in more than one module, each
    with the file names that define it."""
    where = defaultdict(list)
    for path in paths:
        for fn in ast.parse(path.read_text(), str(path)).body:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where[fn.name].append(path.name)
    return {name: files for name, files in where.items() if len(files) > 1}


def test_the_table_dimension_check_is_written_once():
    assert table_checks_outside(sorted(SRC.glob("*.py"))) == []


def test_a_table_check_outside_the_two_checks_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _check_n(f, what, n):\n"
        "    raise DimensionMismatchError(f'table n={f.n} vs {what} n={n}')\n\n"
        "def scan(f, h):\n"
        "    if f.n != h.n:\n"
        "        raise DimensionMismatchError(f'table n={f.n} vs subspace n={h.n}')\n"
        "    raise DimensionMismatchError(f'table dimensions differ: {f.n} vs {h.n}')\n\n"
        "class Table:\n"
        "    def check(self, v):\n"
        "        def inner():\n"
        "            raise DimensionMismatchError(f'vector n={v.n} vs table n={self.n}')\n"
        "        raise ValueError(f'table n={self.n}')\n"
    )
    (tmp_path / "b.py").write_text("raise DimensionMismatchError('coset n=3 vs table n=4')\n")
    found = table_checks_outside(sorted(tmp_path.glob("*.py")))
    assert found == [("a.py", "scan"), ("a.py", "inner"), ("b.py", None)]


def test_no_two_modules_define_a_function_of_one_name():
    assert shared_function_names(sorted(SRC.glob("*.py"))) == {}


def test_a_function_defined_in_two_modules_is_caught(tmp_path):
    (tmp_path / "a.py").write_text(
        "def _restriction(rows):\n    return rows\n\n"
        "def public():\n    return 0\n\n"
        "class A:\n    def method(self):\n        return 1\n"
    )
    (tmp_path / "b.py").write_text(
        "def _restriction(rows):\n    return rows\n\n"
        "def method():\n    def public():\n        return 2\n    return public()\n"
    )
    assert shared_function_names(sorted(tmp_path.glob("*.py"))) == {
        "_restriction": ["a.py", "b.py"]
    }


# The one module that serializes JSON; every other module sends its
# records through `reports.emit_report`.
JSON_WRITER = "reports.py"


def json_writes_outside(paths):
    """Calls of `json.dumps` or `json.dump`, and imports of either name
    from json, in modules other than JSON_WRITER, as (file name, line)."""
    found = []
    for path in paths:
        if path.name == JSON_WRITER:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                if any(alias.name in ("dump", "dumps") for alias in node.names):
                    found.append((path.name, node.lineno))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"
            ):
                found.append((path.name, node.lineno))
    return sorted(found)


def test_only_reports_writes_json():
    assert json_writes_outside(sorted(SRC.glob("*.py"))) == []


def test_a_json_write_outside_reports_is_caught(tmp_path):
    (tmp_path / "reports.py").write_text(
        "import json\n\ndef emit(r):\n    return json.dumps(r)\n"
    )
    (tmp_path / "cli.py").write_text(
        "import json\nfrom json import dump as write, loads\n\n"
        "def main(r, fh):\n"
        "    fh.write(json.dumps(r, sort_keys=True))\n"
        "    json.dump(r, fh)\n"
        "    return json.loads('{}'), loads('{}'), fh.dump(r)\n"
    )
    found = json_writes_outside(sorted(tmp_path.glob("*.py")))
    assert found == [("cli.py", 2), ("cli.py", 5), ("cli.py", 6)]
