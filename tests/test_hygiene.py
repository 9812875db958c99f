"""Source hygiene of the package, checked on its syntax trees.

Every name a module imports is used in that module (or re-exported in
its __all__), and every private module-level function is referenced
somewhere in the package outside its own body.  Deleting the last use
of a helper must delete the helper, and its imports, too.  Every
defaulted parameter of a public function or method is set by at least
one call in src/, tests/ or bench/: a default nobody overrides is a
constant, not an option.  Every dataclass field in src/ is read in src/,
bench/ or the acceptance gate: a result field only unit tests read is
work done for nobody.
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


CALLERS = [
    ast.parse(path.read_text(), filename=str(path))
    for folder in ("src", "tests", "bench")
    for path in sorted((SRC.parents[1] / folder).rglob("*.py"))
]


def _defaulted_parameters(tree):
    """(name, parameter, positional index or None) of every defaulted
    parameter of a public function or method; self and cls are skipped."""
    scopes = [(node, False) for node in tree.body]
    scopes += [
        (item, True) for node in tree.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for item in node.body
    ]
    for fn, is_method in scopes:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        bound = is_method and not any(getattr(dec, "id", None) == "staticmethod" for dec in fn.decorator_list)
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield fn.name, arg.arg, i - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def _sets(call, param, index):
    """Whether call passes param by keyword (or a ** splat), or passes
    positional arguments up to its index (or a * splat)."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_set_by_some_call():
    calls = {}
    for tree in CALLERS:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = sorted(
        f"{module}: {fn}({param})"
        for module, tree in TREES.items()
        for fn, param, index in _defaulted_parameters(tree)
        if not any(_sets(call, param, index) for call in calls.get(fn, ()))
    )
    assert unset == [], f"defaulted parameters no call in src/, tests/ or bench/ sets: {unset}"


# Classes serialised whole by dataclasses.asdict: a field is read by
# being written to a report, so no attribute read names it.
SERIALISED_WHOLE = {
    "CauchyTable": "summary.json's cauchy section is asdict(cauchy_distances(...)); test_cli pins its keys",
    "CkhwDetail": "diagnostics.json's ckhw section is asdict(ckhw_from_spectrum(...)); test_cli pins its keys",
}

READERS = [
    ast.parse(path.read_text(), filename=str(path))
    for path in [*sorted(SRC.glob("*.py")), *sorted((SRC.parents[1] / "bench").rglob("*.py")),
                 SRC.parents[1] / "tests" / "test_acceptance.py"]
]


def _dataclass_fields(tree):
    """(class, field) of every non-ClassVar field of a @dataclass."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [getattr(dec, "func", dec) for dec in node.decorator_list]
        if not any(getattr(dec, "id", None) == "dataclass" for dec in decorators):
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                ann = getattr(item.annotation, "value", item.annotation)
                if getattr(ann, "id", None) != "ClassVar":
                    yield node.name, item.target.id


def _attribute_reads(tree):
    """Attribute names loaded, and constant names passed to getattr."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_every_dataclass_field_is_read():
    """Names are matched, not owners: a field whose name another class also
    reads (times, params) passes."""
    reads = {name for tree in READERS for name in _attribute_reads(tree)}
    unread = sorted(
        f"{cls}.{name}"
        for tree in TREES.values()
        for cls, name in _dataclass_fields(tree)
        if name not in reads and cls not in SERIALISED_WHOLE
    )
    assert unread == [], f"dataclass fields nothing in src/, bench/ or test_acceptance.py reads: {unread}"
