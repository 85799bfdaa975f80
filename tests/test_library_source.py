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
    assert len(defined) > 40, defined  # not a vacuous check
    unread = [f"{module} {name}" for module, name in defined if name not in read]
    assert not unread, f"private names the library never reads: {unread}"


def test_library_parameters_are_read():
    # no argument is accepted and then ignored: every parameter of every def
    # and lambda of the library is read in its body, save self, cls and names
    # starting with an underscore
    found = []
    checked = 0
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                name.id
                for stmt in body
                for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            for param in filter(None, params):
                if param.arg in ("self", "cls") or param.arg.startswith("_"):
                    continue
                checked += 1
                if param.arg not in read:
                    name = getattr(node, "name", "lambda")
                    found.append(f"{path.name}:{node.lineno} {name}({param.arg})")
    assert checked > 200, checked  # not a vacuous check
    assert not found, f"parameters the library never reads: {found}"


def test_library_names_have_a_reader():
    # no library name exists only for the tests: every module-level function
    # or class, and every public method or property, is read in the library
    # or in perfbench (a module-level name as a name, an attribute or an
    # import, a method as an attribute), or is exported in __all__.  Dunders
    # are exempt, and so is oracle.py, whose brute-force references exist to
    # be compared against
    readers = sorted(LIBRARY.glob("*.py")) + sorted((LIBRARY.parents[1] / "perfbench").glob("*.py"))
    names, attributes = set(), set()
    for path in readers:
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name.split(".")[-1] for alias in node.names}
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names |= {elt.value for elt in node.value.elts}
    found = []
    checked = 0
    for path in sorted(LIBRARY.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            checked += 1
            if node.name not in names and node.name not in attributes:
                found.append(f"{path.name} {node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if not isinstance(method, ast.FunctionDef) or method.name.startswith("_"):
                    continue
                checked += 1
                if method.name not in attributes:
                    found.append(f"{path.name} {node.name}.{method.name}")
    assert checked > 120, checked  # not a vacuous check
    assert not found, f"library names only the tests read: {found}"


def test_refusal_messages_have_one_home():
    # an input rule that several entry points share is written once, in
    # core.py (check_length, check_monomial, check_order_length), so no
    # route can word it or order its checks another way: its message is a
    # string nowhere else in the library, f-string parts included
    phrases = ("expected length", "monomial exponents must be nonnegative", "weights, not")
    found, homed = [], set()
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            for phrase in phrases:
                if phrase not in node.value:
                    continue
                if path.name == "core.py":
                    homed.add(phrase)
                else:
                    found.append(f"{path.name}:{node.lineno} {phrase!r}")
    assert not found, f"refusal messages outside core.py: {found}"
    assert homed == set(phrases), homed  # not a vacuous check


def test_value_types_share_one_base():
    # equality, hashing and immutability are written once, in core.Frozen:
    # a value class inherits them, and KernelLattice borrows the refusals as
    # class attributes, so no other class defines one of these methods
    special = {"__eq__", "__hash__", "__setattr__", "__delattr__"}
    found, homed = [], set()
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and method.name in special:
                    if (path.name, node.name) == ("core.py", "Frozen"):
                        homed.add(method.name)
                    else:
                        found.append(f"{path.name} {node.name}.{method.name}")
    assert not found, f"value-type methods outside core.Frozen: {found}"
    assert homed == special, homed  # not a vacuous check
