"""The numpy-only modules import without scipy."""

import subprocess
import sys

import pytest


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
