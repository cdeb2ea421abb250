"""Guard: every function or method the package defines has a caller, and
every parameter it takes is read.

A definition counts as used when its name occurs as a ``Name``, an
``Attribute`` or an imported name anywhere in ``src/bisectmesh`` or
``bench/*.py``, outside the package's ``__init__.py``: neither a re-export
there nor an entry of ``bisectmesh.__all__`` is a caller.  Dunder methods
are called by Python itself and are exempt.  A helper that only the tests
call is moved into the tests as an oracle; exporting it does not keep it.

A parameter counts as read when its name is loaded somewhere in the body of
its function or lambda, nested functions included.  ``self``, ``cls``,
names that start with ``_`` and the parameters of dunder methods, whose
signatures Python fixes, are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "bisectmesh" / "__init__.py"


def _trees():
    files = sorted((ROOT / "src" / "bisectmesh").glob("*.py")) + sorted(
        (ROOT / "bench").glob("*.py")
    )
    return [(path, ast.parse(path.read_text(), str(path))) for path in files]


def uncalled_definitions(trees):
    """``(file, line, name)`` of package definitions nothing uses."""
    package = ROOT / "src"
    defined, used = [], set()
    for path, tree in trees:
        if path == INIT:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if package in path.parents and not dunder:
                    defined.append((path.name, node.lineno, node.name))
    return [d for d in defined if d[2] not in used]


def test_every_package_function_has_a_caller():
    assert uncalled_definitions(_trees()) == []


def test_guard_sees_an_uncalled_helper():
    trees = _trees()
    path = ROOT / "src" / "bisectmesh" / "extra.py"
    trees.append((path, ast.parse("def orphan():\n    return 1\n")))
    assert uncalled_definitions(trees) == [("extra.py", 1, "orphan")]


def test_guard_sees_an_exported_helper():
    """A helper re-exported from ``__init__.py`` and listed in ``__all__``
    still needs a caller."""
    trees = _trees()
    for path, tree in trees:
        if path == INIT:
            tree.body += ast.parse('from .extra import orphan\n__all__ += ["orphan"]\n').body
    path = ROOT / "src" / "bisectmesh" / "extra.py"
    trees.append((path, ast.parse("def orphan():\n    return 1\n")))
    assert uncalled_definitions(trees) == [("extra.py", 1, "orphan")]


def unread_parameters(trees):
    """``(file, line, function, parameter)`` of package parameters that
    their function's body never reads."""
    package = ROOT / "src"
    unread = []
    for path, tree in trees:
        if package not in path.parents:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            if name.startswith("__") and name.endswith("__"):
                continue
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread.extend(
                (path.name, node.lineno, name, p.arg)
                for p in params
                if p and p.arg not in read and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
            )
    return unread


def test_every_package_parameter_is_read():
    assert unread_parameters(_trees()) == []


def test_guard_sees_an_unread_parameter():
    trees = _trees()
    path = ROOT / "src" / "bisectmesh" / "extra.py"
    trees.append((path, ast.parse("def f(a, b):\n    return a\n")))
    assert unread_parameters(trees) == [("extra.py", 1, "f", "b")]
