"""The README's library example runs as documented."""

import contextlib
import io
import re
from pathlib import Path

from specgeom.inequalities import INEQS

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


def test_id_table_lists_every_check_id():
    section = README.read_text().split("### Inequality ids", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `([^`]+)` \|", section, re.M)
    assert len(table) == len(set(table))
    assert set(table) == set(INEQS)
