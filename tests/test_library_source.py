import ast
from pathlib import Path

LIBRARY = Path(__file__).resolve().parents[1] / "src" / "toricbases"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check of the library may be one
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


def test_library_imports_are_used():
    # no linter is assumed: every imported name must be read somewhere in its
    # module, save the package's re-exports (named in __all__) and
    # `from __future__ import annotations`
    found = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {elt.value for elt in node.value.elts}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno} {name}")
    assert not found, f"unused imports in the library: {found}"


def test_library_private_names_are_read():
    # every module-level private function, class or constant of the library
    # must be read somewhere in it, by its module or through a module alias
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(LIBRARY.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(name, t) for t in targets if t.startswith("_") and not t.startswith("__")]
    assert len(defined) > 40, defined  # not a vacuous check: 58 names today
    unread = [f"{module} {name}" for module, name in defined if name not in read]
    assert not unread, f"private names the library never reads: {unread}"
