"""Source hygiene of the package, checked on its syntax trees.

Every name a module imports is used in that module (or re-exported in
its __all__), and every private module-level function is referenced
somewhere in the package outside its own body.  Deleting the last use
of a helper must delete the helper, and its imports, too.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "baroflow"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def _references(node, skip=None):
    """Names read under node, and attribute names, skipping the subtree skip."""
    out = set()
    stack = [node]
    while stack:
        cur = stack.pop()
        if cur is skip:
            continue
        if isinstance(cur, ast.Name) and isinstance(cur.ctx, ast.Load):
            out.add(cur.id)
        elif isinstance(cur, ast.Attribute):
            out.add(cur.attr)
        stack.extend(ast.iter_child_nodes(cur))
    return out


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _references(tree) | _exported(tree)
    unused = sorted(name for name in _imported(tree) if name not in used)
    assert unused == [], f"{module} imports names it never uses: {unused}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_function_is_referenced(module):
    private = [
        node for node in TREES[module].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_") and not node.name.startswith("__")
    ]
    dead = []
    for fn in private:
        refs = set()
        for other, tree in TREES.items():
            refs |= _references(tree, skip=fn if other == module else None)
        if fn.name not in refs:
            dead.append(fn.name)
    assert dead == [], f"{module} defines private functions nothing references: {dead}"
