"""Every name the package and its tests import is used, every private
module-level name in the package is read somewhere in it, and the package
holds no ``assert``: ``python -O`` strips them, so checks must be explicit."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """Imported names never read in the module, nor listed in its __all__."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items(), key=lambda item: item[1])
            if name not in read and name not in exported]


def test_no_unused_imports():
    paths = sorted([*ROOT.glob("src/toughkit/*.py"), *ROOT.glob("tests/*.py")])
    assert paths
    assert [hit for path in paths for hit in unused_imports(path)] == []


def test_no_assert_in_package():
    paths = sorted(ROOT.glob("src/toughkit/*.py"))
    assert paths
    hits = [f"{path.relative_to(ROOT)}:{node.lineno}"
            for path in paths
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Assert)]
    assert hits == []


def private_definitions(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """Module-level ``_name`` functions, classes and constants (no dunders)."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        out += [(node, name) for name in names
                if name.startswith("_") and not name.startswith("__")]
    return out


def test_no_dead_private_helpers():
    # a helper read only inside its own definition (say, by recursion) is dead too
    paths = sorted(ROOT.glob("src/toughkit/*.py"))
    assert paths
    readers: dict[str, set] = {}  # name -> (path, line) of each top-level statement reading it
    defined = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add((path, stmt.lineno))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add((path, stmt.lineno))
        defined += [(path, stmt.lineno, name) for stmt, name in private_definitions(tree)]
    assert defined
    dead = [f"{path.relative_to(ROOT)}:{line} {name}"
            for path, line, name in defined
            if not readers.get(name, set()) - {(path, line)}]
    assert dead == []
