"""Golden output corpus for the command line.

Each entry of ``CORPUS`` is one ``specgeom`` command, run in-process against
meshes that ``specgeom.meshgen`` writes into a temporary directory (mesh
provenance keeps only the file's basename, so outputs do not depend on
where the meshes live).  The recorded outputs sit under ``tests/golden/``:
``<name>.out`` and ``<name>.err`` hold stdout and stderr, ``exit_codes.json``
maps each name to its exit code.

Comparison: the exit code and stderr must match exactly.  Stdout is parsed
as JSON, or as CSV when it is not JSON; ids, keys, key order, strings and
booleans must match exactly, and numbers to a relative 1e-12 with an
absolute floor of 1e-12 for values that are rounding noise around zero
(kernel eigenvalues and residuals of a mesh solve).

After an intended output change, re-record with

    python tests/test_golden.py --record

which rewrites only the cases that are new or fail this comparison, so
mesh outputs that differ between machines in their last digits stay as
recorded.
"""

import csv
import io
import json
import math
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from specgeom import cli, eigensolve  # noqa: E402
from specgeom.meshgen import icosphere, write_off  # noqa: E402

GOLDEN = Path(__file__).resolve().with_name("golden")
CODES = GOLDEN / "exit_codes.json"
REL_TOL = 1e-12
ABS_FLOOR = 1e-12

SPHERE_L = ["--model", "sphere", "--dim", "2", "--operator", "laplace"]
SPHERE_D = ["--model", "sphere", "--dim", "2", "--operator", "dirac"]
CLIFFORD = ["--model", "torus", "--lattice", "clifford"]
MESH = ["--mesh", "{ico2}"]

CORPUS = {
    # one inequality id per command, on a model and on the mesh
    "main-model": ["check", "--ineq", "main", *SPHERE_L, "--j-range", "1:3"],
    "main-mesh": ["check", "--ineq", "main", *MESH, "--j-range", "1:2"],
    "main-mesh-h-sq": ["check", "--ineq", "main", *MESH, "--j", "1", "--h-sq", "3"],
    "eta-model": ["check", "--ineq", "eta", *SPHERE_D, "--j", "2"],
    "eta-mesh": ["check", "--ineq", "eta", *MESH, "--j", "1"],
    "eta-oblique-torus": [
        "check", "--ineq", "eta", "--model", "torus", "--lattice", "1 0; 0.5 1",
        "--operator", "dirac"],
    "universal-euclidean-model": [
        "check", "--ineq", "universal-euclidean", *CLIFFORD, "--spin", "0,1/2",
        "--j", "1", "--count", "64"],
    "universal-euclidean-mesh": [
        "check", "--ineq", "universal-euclidean", *MESH, "--j", "2", "--c2", "0.25"],
    "universal-sphere-model": ["check", "--ineq", "universal-sphere", *SPHERE_D],
    "universal-sphere-mesh": ["check", "--ineq", "universal-sphere", *MESH],
    "sphere-model": [
        "check", "--ineq", "sphere", "--model", "sphere", "--dim", "3",
        "--operator", "dirac"],
    "sphere-torus-model": [
        "check", "--ineq", "sphere", "--model", "clifford-torus", "--operator",
        "dirac", "--j", "2"],
    "sphere-cubic-torus": [
        "check", "--ineq", "sphere", "--model", "torus", "--lattice",
        "1 0 0; 0 1 0; 0 0 1", "--operator", "laplace"],
    "sphere-oblique-torus": [
        "check", "--ineq", "sphere", "--model", "torus", "--lattice", "1 0; 0.5 1",
        "--operator", "laplace"],
    "sphere-mesh": ["check", "--ineq", "sphere", *MESH, "--hbar1-integral", "1"],
    "reilly1-model": ["check", "--ineq", "reilly1", *SPHERE_L],
    "reilly1-mesh": ["check", "--ineq", "reilly1", *MESH],
    "reilly1-sphere-h-sq": [
        "check", "--ineq", "reilly1", "--model", "sphere", "--dim", "3", "--h-sq", "2"],
    "reilly2-model": ["check", "--ineq", "reilly2", *SPHERE_L, "--radius", "0.5"],
    "reilly2-clifford-torus": [
        "check", "--ineq", "reilly2", "--model", "clifford-torus", "--operator",
        "laplace"],
    "reilly2-mesh": ["check", "--ineq", "reilly2", *MESH, "--hbar1-integral", "1"],
    "reilly3-model": [
        "check", "--ineq", "reilly3", *SPHERE_L, "--field", "R",
        "--htilde-sq-integral", "0.5"],
    "reilly3-mesh": ["check", "--ineq", "reilly3", *MESH, "--field", "Q"],
    "projective-minimal-model": [
        "check", "--ineq", "projective", *SPHERE_L, "--minimal"],
    "projective-sup-term-model": [
        "check", "--ineq", "projective", "--model", "clifford-torus",
        "--operator", "laplace", "--field", "Q", "--sup-term", "1.5", "--j", "2"],
    "projective-mesh": ["check", "--ineq", "projective", *MESH, "--sup-term", "2"],
    "lp-spin-model": ["check", "--ineq", "lp-spin", *CLIFFORD, "--spin", "1/2,1/2"],
    "lp-spin-mesh": ["check", "--ineq", "lp-spin", *MESH, "--b-sq-sup", "0.5"],
    "index-model": ["check", "--ineq", "index", *CLIFFORD, "--spin", "0,0"],
    "index-mesh": ["check", "--ineq", "index", *MESH, "--b-sq-sup", "4", "--m", "1"],
    "background-model": [
        "check", "--ineq", "background", *SPHERE_D, "--s0", "2", "--genus", "0",
        "--gap-k", "2", "--yang-k", "3", "--b-sq-sup", "0",
        "--h-sq-integral", "12.5", "--htilde-sq-integral", "0.25",
        "--chen-h-sq", "1", "--lp-j", "2"],
    "background-mesh": [
        "check", "--ineq", "background", *MESH, "--genus", "0", "--area", "12",
        "--gap-k", "2", "--h-sq-integral", "12", "--lp-j", "1"],
    "conjecture": ["check", "--ineq", "conjecture", "--lattice", "clifford"],
    # a non-diagonal dual basis: the spin shifts' boxes are not aligned
    "conjecture-oblique": ["check", "--ineq", "conjecture", "--lattice", "1 0.3; 0 1.2"],
    "multi-csv": [
        "check", "--ineq", "conjecture,main,reilly1", "--model", "clifford-torus",
        "--operator", "laplace", "--j-range", "1:2", "--csv"],
    "sweep": ["sweep", "--ratio-grid", "0.9:1.1:0.1", "--count", "32"],
    # aspect ratios 0.5 to 4, the ends of the benchmark's sweep
    "sweep-wide": ["sweep", "--ratio-grid", "0.5:4.0:0.25"],
    "prooflab-prop31": [
        "prooflab", "--task", "prop31", *MESH, "--psi", "x", "--j", "1"],
    "prooflab-anghel": ["prooflab", "--task", "anghel", *MESH, "--j", "2"],
    "prooflab-identities": ["prooflab", "--task", "identities", *MESH],
    "prooflab-refinement": [
        "prooflab", "--task", "refinement", "--mesh-list", "{ico1},{ico2}"],
    "spectrum-model": [
        "spectrum", "--model", "torus", "--lattice",
        "6.283185307179586 0; 0 6.283185307179586", "--spin", "0,1/2",
        "--count", "8"],
    # shells closer than VALUE_GROUP_RTOL to their neighbours but not to
    # their shell's first value: grouping by neighbour gaps alone differs
    "spectrum-near-square-torus": [
        "spectrum", "--model", "torus", "--lattice", "1 0; 0 1.0000000005384615",
        "--operator", "laplace", "--count", "256"],
    "spectrum-mesh": ["spectrum", *MESH, "--count", "5"],
    # errors: exit 1 or 2 with one JSON object on stderr
    "error-unknown-id": ["check", "--ineq", "main,nope", *SPHERE_L],
    "error-missing-parameter": ["check", "--ineq", "index", *MESH],
    "error-count-below-required": [
        "check", "--ineq", "main,reilly1", *SPHERE_L, "--j", "3", "--count", "4"],
    "error-kernel-mismatch": ["check", "--ineq", "reilly1", *SPHERE_L, "--m", "2"],
    "error-no-zero-modes": [
        "check", "--ineq", "index", *SPHERE_D, "--b-sq-sup", "1"],
    "error-radius-outside-unit-sphere": [
        "check", "--ineq", "sphere", *SPHERE_D, "--radius", "2"],
    "error-no-background-bound": ["check", "--ineq", "background", *SPHERE_L],
    "unsatisfied-exit-1": ["check", "--ineq", "background", *SPHERE_D, "--s0", "4"],
}


def write_meshes(root) -> dict:
    paths = {}
    for level in (1, 2):
        path = Path(root) / ("ico%d.off" % level)
        write_off(path, *icosphere(level))
        paths["ico%d" % level] = str(path)
    return paths


def run(name, meshes):
    argv = [arg.format(**meshes) for arg in CORPUS[name]]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _parse(text):
    if not text:
        return None
    try:
        return json.loads(text)
    except ValueError:
        return list(csv.reader(io.StringIO(text)))


def _number(value):
    if isinstance(value, bool) or value is None:
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def assert_same(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), "%s: keys %s != %s" % (path, list(got), list(want))
        for key in want:
            assert_same(got[key], want[key], "%s.%s" % (path, key))
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), "%s: length" % path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, "%s[%d]" % (path, i))
    elif _number(want) is not None and _number(got) is not None:
        g, w = _number(got), _number(want)
        assert math.isclose(g, w, rel_tol=REL_TOL, abs_tol=ABS_FLOOR), (
            "%s: %r != %r" % (path, got, want)
        )
    else:
        assert got == want and type(got) is type(want), "%s: %r != %r" % (path, got, want)


@pytest.fixture(scope="module")
def meshes(tmp_path_factory):
    return write_meshes(tmp_path_factory.mktemp("golden-meshes"))


def assert_recorded(name, code, out, err, codes, root=GOLDEN):
    """A fresh run of ``name`` against its recording under ``root``."""
    assert code == codes[name]
    assert err == (root / (name + ".err")).read_text()
    assert_same(_parse(out), _parse((root / (name + ".out")).read_text()))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_matches_golden(name, meshes):
    assert_recorded(name, *run(name, meshes), json.loads(CODES.read_text()))


@pytest.mark.parametrize(
    "name", sorted(n for n, argv in CORPUS.items() if argv[0] == "check" and "--mesh" in argv)
)
def test_mesh_check_solves_once(name, meshes, monkeypatch):
    """A mesh's kernel dimension is known before its solve, so each mesh
    check makes exactly one sparse solve."""
    sizes = []
    real_solve = eigensolve.solve_smallest

    def spy(ops, k, **kwargs):
        sizes.append(k)
        return real_solve(ops, k, **kwargs)

    monkeypatch.setattr(cli, "solve_smallest", spy)
    run(name, meshes)
    assert len(sizes) == 1


def test_every_ineq_id_is_covered():
    used = set()
    for argv in CORPUS.values():
        if "--ineq" in argv:
            used.update(argv[argv.index("--ineq") + 1].split(","))
    assert set(cli.INEQS) <= used


def test_record_rewrites_only_failing_cases(tmp_path):
    """Recording at unchanged source leaves every file byte for byte, mesh
    outputs included; a case that fails its comparison is written again."""
    copy = tmp_path / "golden"
    shutil.copytree(GOLDEN, copy)
    (copy / "main-model.out").write_text("{}")
    codes = json.loads(CODES.read_text())
    codes["main-model"] = 3
    (copy / CODES.name).write_text(json.dumps(codes))
    record(copy)
    assert {p.name: p.read_bytes() for p in copy.iterdir()} == {
        p.name: p.read_bytes() for p in GOLDEN.iterdir()}


def record(root=GOLDEN):
    """Write each case that is new or fails ``assert_recorded``, and the
    exit codes only when one changed."""
    root.mkdir(exist_ok=True)
    codes_path = root / CODES.name
    recorded = json.loads(codes_path.read_text()) if codes_path.exists() else {}
    codes, written = {}, 0
    with tempfile.TemporaryDirectory() as tmp:
        meshes = write_meshes(tmp)
        for name in sorted(CORPUS):
            codes[name], out, err = run(name, meshes)
            try:
                assert_recorded(name, codes[name], out, err, recorded, root)
                continue
            except (AssertionError, KeyError, OSError):
                pass
            (root / (name + ".out")).write_text(out)
            (root / (name + ".err")).write_text(err)
            written += 1
    if codes != recorded:
        codes_path.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print("recorded %d of %d commands under %s" % (written, len(codes), root))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    if not __debug__:
        sys.exit("record compares through assert statements; run without -O")
    record()
