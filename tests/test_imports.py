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
