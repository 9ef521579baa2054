"""Static hygiene of the package source, checked with the stdlib ``ast``.

No linter is assumed: these two checks keep unused imports and dead
private helpers out of ``src/twoshift``.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "twoshift"
TREES = {path.name: ast.parse(path.read_text(), str(path))
         for path in sorted(SRC.glob("*.py"))}


def _names_used(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _imported(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_import_is_used():
    unused = []
    for name, tree in TREES.items():
        used = _names_used(tree)
        unused += ["%s: %s" % (name, imp) for imp in _imported(tree)
                   if imp not in used]
    assert not unused, unused


def test_every_private_helper_is_used():
    used = set()
    for tree in TREES.values():
        used |= _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):  # module._helper
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    dead = ["%s: %s" % (name, node.name)
            for name, tree in TREES.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in used]
    assert not dead, dead
