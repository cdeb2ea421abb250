"""Guard: the package is layered.

Each module of ``src/bisectmesh`` imports only package modules that come
before it in :data:`LAYERS`, and only at module level: no function, method
or lambda contains an import of any kind.  ``__init__`` re-exports the
package and sits above every layer.  A new module must be given its place
in :data:`LAYERS`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bisectmesh"
LAYERS = (
    "exactgeom", "tarray", "forest", "refine", "inittags", "harness", "pilegame", "meshio", "cli",
)


def _trees():
    return [(path, ast.parse(path.read_text(), str(path))) for path in sorted(PACKAGE.glob("*.py"))]


def _package_imports(node):
    """Names of the package modules an import statement reads."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level:  # from .x import y, from . import x
        return [node.module] if node.module else [alias.name for alias in node.names]
    elif node.module == "bisectmesh":
        return [alias.name for alias in node.names]
    else:
        names = [node.module]
    return [name.split(".")[1] for name in names if name.startswith("bisectmesh.")]


def layer_violations(trees):
    """``(file, line, message)`` of imports that break the layering."""
    found = set()
    for path, tree in trees:
        name = path.stem
        if name == "__init__":
            rank = len(LAYERS)
        elif name in LAYERS:
            rank = LAYERS.index(name)
        else:
            found.add((path.name, 1, "module has no place in LAYERS"))
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found.update(
                    (path.name, inner.lineno, "import inside a function")
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                )
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found.update(
                    (path.name, node.lineno, f"imports {module}, which is not below it")
                    for module in _package_imports(node)
                    if module not in LAYERS[:rank]
                )
    return sorted(found)


def test_every_module_imports_only_lower_layers_at_top():
    assert layer_violations(_trees()) == []


def test_guard_sees_an_upward_and_a_local_import():
    trees = [(path, tree) for path, tree in _trees() if path.stem != "forest"]
    source = (
        "from .tarray import bisect\n"
        "from .refine import refine\n"
        "from bisectmesh import harness\n"
        "def f():\n"
        "    import os\n"
        "    return os\n"
    )
    trees.append((PACKAGE / "forest.py", ast.parse(source)))
    trees.append((PACKAGE / "extra.py", ast.parse("")))
    assert layer_violations(trees) == [
        ("extra.py", 1, "module has no place in LAYERS"),
        ("forest.py", 2, "imports refine, which is not below it"),
        ("forest.py", 3, "imports harness, which is not below it"),
        ("forest.py", 5, "import inside a function"),
    ]
