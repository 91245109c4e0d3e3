"""The README's library example runs as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), namespace)
    report, basis, exact = namespace["report"], namespace["basis"], namespace["exact"]
    assert report.satisfied
    assert basis.zero_dim == exact.zero_dim == 1
    assert abs(basis.gamma(2) - exact.gamma(2)) < 0.01
    assert len(out.getvalue().splitlines()) == 3
