"""The README's examples run as documented."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from specgeom import cli
from specgeom.inequalities import INEQS
from specgeom.meshgen import icosphere, write_off

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


def readme_commands():
    """The argument lists of the ``specgeom`` lines in the README's sh
    blocks, with backslash continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("specgeom "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_command_line_examples_run(tmp_path, monkeypatch):
    """Every ``specgeom`` example exits 0, run on small icospheres written
    under the file names the README uses."""
    for name, level in (("surface.off", 2), ("lvl3.off", 1), ("lvl4.off", 2),
                        ("lvl5.off", 3)):
        write_off(tmp_path / name, *icosphere(level))
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) >= 7
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        assert code == 0, (argv, err.getvalue())
