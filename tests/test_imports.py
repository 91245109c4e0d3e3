"""The numpy-only modules import without scipy, and every module uses what
it imports."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "specgeom").glob("*.py"))


@pytest.mark.parametrize("module", [
    "specgeom", "specgeom.models", "specgeom.meshgen", "specgeom.inequalities",
    "specgeom.serialize", "specgeom.errors",
])
def test_imports_without_scipy(module):
    code = (
        "import sys; sys.path[:] = %r; import %s; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        % (sys.path, module)
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    """A name a module imports is read somewhere in that module, so code
    deletions leave no stale imports behind."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_every_private_name_is_read():
    """A module-level private name (function, class or assignment) is read
    somewhere in the package, so a refactor leaves no orphaned helper
    behind.  Decorated definitions register themselves and are exempt."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [] if node.decorator_list else [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update(("%s:%s" % (module, name), node.lineno) for name in names
                           if name.startswith("_") and not name.startswith("__"))
    assert {key: line for key, line in defined.items()
            if key.split(":")[1] not in read} == {}
