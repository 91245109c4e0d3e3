"""The numpy-only modules import without scipy, commands that read no mesh
run without it, and every module uses what it imports."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "specgeom").glob("*.py"))


def scipy_modules(code):
    """The scipy modules loaded after running ``code`` in a fresh
    interpreter on this one's path, as that interpreter prints them."""
    code = ("import sys; sys.path[:] = %r; %s; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "file=sys.stderr)" % (sys.path, code))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return proc.stderr.splitlines()[-1]


@pytest.mark.parametrize("module", [
    "specgeom", "specgeom.models", "specgeom.meshgen", "specgeom.inequalities",
    "specgeom.serialize", "specgeom.errors", "specgeom.mesh", "specgeom.prooflab",
    "specgeom.cli",
])
def test_imports_without_scipy(module):
    assert scipy_modules("import %s" % module) == "[]"


@pytest.mark.parametrize("argv", [
    ["sweep", "--ratio-grid", "0.5:2:0.5"],
    ["spectrum", "--model", "sphere", "--dim", "3", "--operator", "dirac", "--tol", "1e-8"],
    ["check", "--ineq", "conjecture", "--lattice", "1 0.3; 0 1.2"],
    ["check", "--ineq", "main,reilly1", "--model", "sphere", "--j-range", "1:3"],
], ids=["sweep", "sphere-spectrum", "conjecture", "sphere-check"])
def test_model_commands_run_without_scipy(argv):
    code = "from specgeom import cli; assert cli.main(%r) == 0" % (argv,)
    assert scipy_modules(code) == "[]"


def test_mesh_command_loads_scipy(tmp_path):
    """The counterpart of the model commands: the solvers load scipy with
    the first mesh, so the check above would see it if a model command did."""
    path = str(tmp_path / "ico1.off")
    code = ("from specgeom import cli, meshgen; meshgen.write_off(%r, *meshgen.icosphere(1)); "
            "assert cli.main(['spectrum', '--mesh', %r, '--count', '4']) == 0" % (path, path))
    loaded = scipy_modules(code)
    assert "'scipy.sparse.linalg'" in loaded and "'scipy.linalg'" in loaded


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
