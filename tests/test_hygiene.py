"""Source hygiene: no module imports a name it never uses or defines a
private name it never reads, the package exports exactly the public
names its __init__ binds, the orbit counts sit below the expression
layer, no module imports dataclasses, and nodes are budgeted only
through errors.Budget."""
from __future__ import annotations

import ast
from pathlib import Path

import growthlab

SRC = Path(growthlab.__file__).parent


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names the module's imports bind, with their lines."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _imported_modules(tree: ast.Module) -> list[str]:
    """The modules the tree's imports name, absolute or relative."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
            if node.level and not node.module:  # from . import group_expr
                modules += [alias.name for alias in node.names]
    return modules


def test_no_unused_module_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imported(tree).items() if name not in used]
    assert unused == []


def test_every_private_module_name_is_read_in_its_module():
    # a module-level _name that its own module never reads is dead code:
    # nothing outside the module should reach for it either
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [
            f"{path.name}:{line} {name}"
            for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in read
        ]
    assert unread == []


def test_exports_match_the_names_init_binds():
    tree = ast.parse((SRC / "__init__.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = {name for name in bound if not name.startswith("_")}
    exported = growthlab.__all__
    assert len(exported) == len(set(exported))
    assert set(exported) == public
    for name in exported:
        assert hasattr(growthlab, name), name


def test_orbit_oracle_imports_nothing_from_the_expression_layer():
    modules = _imported_modules(ast.parse((SRC / "orbit_oracle.py").read_text()))
    assert [m for m in modules if m.split(".")[-1] == "group_expr"] == []


def test_no_module_imports_dataclasses():
    # dataclasses imports inspect, ast and dis, and each decorated class
    # compiles its methods at import: the record classes subclass Record
    importing = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "dataclasses" in _imported_modules(ast.parse(path.read_text()))
    ]
    assert importing == []


def test_nodes_are_budgeted_only_through_one_budget_object():
    # a search takes a Budget and its caller reads budget.spent: a
    # node_budget limit or a counters dict would be a second mechanism
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
                found += [
                    f"{path.name}:{node.lineno} {p.arg}" for p in params if p.arg in ("node_budget", "counters")
                ]
    assert found == []
