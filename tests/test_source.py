"""Static checks on the package source: every import and every module-level
private name of `src/robustlrt` is used, and every import is of the standard
library, numpy or the package itself.

A name moved from one module to another tends to leave its old imports
behind; these checks find them by reading the modules with `ast`, without
importing them.
"""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "robustlrt"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree):
    """Names a module reads: loaded names, the names in string annotations
    and the strings of ``__all__``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and not isinstance(n.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            anns = [node.returns] + [x.annotation for x in
                                     a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                                     if x is not None]
        elif isinstance(node, ast.AnnAssign):
            anns = [node.annotation]
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
            continue
        else:
            continue
        for ann in filter(None, anns):
            for c in ast.walk(ann):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    names |= {n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                              if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    unused = {name: line for name, line in imported.items() if name not in _loaded_names(tree)}
    assert not unused, f"{path.name}: unused imports (name: line) {unused}"


def test_every_module_level_private_name_is_used():
    # a private name counts as used where its module reads it, and where
    # another module reads it as an attribute or imports it
    trees = {path.name: _tree(path) for path in MODULES}
    elsewhere = set()
    for tree in trees.values():
        elsewhere |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        elsewhere |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                      for a in n.names}
    unused = []
    for name, tree in trees.items():
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        private = {d for d in defined if d.startswith("_") and not d.startswith("__")}
        unused += [f"{name}: {d}" for d in sorted(private - _loaded_names(tree) - elsewhere)]
    assert not unused, unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_the_package(path):
    # numpy is the one run-time dependency; the test tools, scipy among
    # them, are installed beside the package but must not be imported by it
    allowed = set(sys.stdlib_module_names) | {"numpy", "robustlrt"}
    found = {}
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found |= {name: node.lineno for name in names if name.split(".")[0] not in allowed}
    assert not found, f"{path.name}: imports outside the standard library and numpy {found}"
