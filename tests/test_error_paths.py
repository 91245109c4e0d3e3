"""Every input error the command line can meet, pinned by exit code, kind,
message and detail, and the parse errors by message and line.

The parse tables guard a bulk mesh reader: any rewrite of the OFF or OBJ
parser must keep each line-numbered error as it is.
"""

import json
import subprocess
import sys

import numpy as np
import pytest

from specgeom import cli, models
from specgeom.cli import main
from specgeom.eigensolve import dense_eigenbasis
from specgeom.errors import MeshParseError
from specgeom.mesh import assemble_operators, load_mesh
from specgeom.meshgen import icosphere, write_off
from specgeom.prooflab import verify_prop31

TET = "0 0 0\n1 0 0\n0 1 0\n0 0 1\n"
TET_OFF_FACES = "3 0 2 1\n3 0 1 3\n3 0 3 2\n3 1 2 3\n"
TET_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n"
LATTICE = "6.283185307179586 0; 0 6.283185307179586"


@pytest.fixture(scope="module")
def ico2(tmp_path_factory):
    path = tmp_path_factory.mktemp("ico") / "ico2.off"
    write_off(path, *icosphere(2))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, json.loads(err) if err else None


@pytest.mark.parametrize("name, text, message, line", [
    ("empty.off", "", "empty OFF file", 0),
    ("header.off", "OFF\n", "missing OFF count line", 1),
    ("one-count.off", "OFF\n4\n", "OFF count line needs vertex and face counts", 2),
    ("text-count.off", "OFF\n4 four 0\n", "OFF counts are not integers", 2),
    ("negative.off", "OFF\n-4 4 0\n", "negative OFF counts", 2),
    ("coordinate.off", "OFF\n4 4 0\n0 0 0\n1 0 zero\n", "vertex coordinate is not a number", 4),
    ("two-coordinates.off", "OFF\n4 4 0\n0 0\n",
     "vertex line must hold exactly 3 coordinates", 3),
    ("index.off", "OFF\n4 4 0\n" + TET + "3 0 2 one\n", "face index is not an integer", 7),
    ("arity.off", "OFF\n4 4 0\n" + TET + "x 0 2 1\n",
     "face line must start with its vertex count", 7),
    ("quad.off", "OFF\n4 4 0\n" + TET + "4 0 1 2 3\n", "only triangular faces are supported", 7),
    ("few-vertices.off", "OFF\n1000000000000 4 0\n0 0 0\n",
     "OFF file ends inside vertex block", 3),
    ("few-faces.off", "OFF\n4 100000000000 0\n" + TET, "OFF file ends inside face block", 6),
    ("two-coordinates.obj", "v 0 0 0\nv 1 0\n", "vertex line needs 3 coordinates", 2),
    ("coordinate.obj", "v 0 0 zero\n", "vertex coordinate is not a number", 1),
    ("no-vertices.obj", "# faces only\nf 1 2 3\n", "OBJ file holds no vertices", 0),
    ("quad.obj", TET_OBJ + "f 1 2 3 4\n", "only triangular faces are supported", 9),
    ("index.obj", TET_OBJ + "f 1 2 x\n", "face index is not an integer", 9),
    ("zero-index.obj", TET_OBJ + "f 0 1 2\n", "face indices must be positive", 9),
])
def test_parse_error_names_its_line(tmp_path, name, text, message, line):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(MeshParseError) as exc:
        load_mesh(path)
    assert exc.value.to_json_dict() == {
        "kind": "mesh-parse", "message": message, "detail": {"path": str(path), "line": line}
    }


@pytest.mark.parametrize("name, text, line", [
    ("beyond-int64.off", "OFF\n4 4 0\n" + TET + "3 0 2 1\n3 0 1 99999999999999999999\n", 8),
    ("below-int64.off", "OFF\n4 4 0\n" + TET + "3 0 2 -99999999999999999999\n", 7),
    ("beyond-int64.obj", TET_OBJ + "f 1 3 99999999999999999999\n", 9),
])
def test_face_index_beyond_int64_exits_2(tmp_path, capsys, name, text, line):
    """A parse error naming its line, not an OverflowError (exit 4)."""
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, ["spectrum", "--mesh", str(path)])
    assert (code, out) == (2, "")
    assert err == {"kind": "mesh-parse", "message": "face index does not fit in 64 bits",
                   "detail": {"path": str(path), "line": line}}


@pytest.mark.parametrize("text, message, line", [
    ("OFF\n1000000000000 4 0\n0 0 0\n", "OFF file ends inside vertex block", 3),
    ("OFF\n4 100000000000 0\n" + TET, "OFF file ends inside face block", 6),
])
def test_off_counts_past_the_file_exit_2(tmp_path, capsys, text, message, line):
    """The header's counts used to size the arrays: a MemoryError, exit 4."""
    path = tmp_path / "big.off"
    path.write_text(text)
    code, out, err = run(capsys, ["spectrum", "--mesh", str(path)])
    assert (code, out) == (2, "")
    assert err == {"kind": "mesh-parse", "message": message,
                   "detail": {"path": str(path), "line": line}}


@pytest.mark.parametrize("text", [
    "OFF 4 4 0\n" + TET + TET_OFF_FACES,
    "4 4 0\n" + TET + TET_OFF_FACES,
    "# comment\nOFF\n\n4 4 0 # counts\n" + TET + TET_OFF_FACES,
])
def test_off_header_variants_load(tmp_path, text):
    path = tmp_path / "tet.off"
    path.write_text(text)
    mesh = load_mesh(path)
    assert (mesh.n_vertices, mesh.n_faces) == (4, 4)
    np.testing.assert_array_equal(mesh.faces[0], [0, 2, 1])


def test_off_from_a_pipe(ico2):
    """A stream has no size to allocate from; its lines are all there is."""
    with open(ico2, "rb") as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "specgeom.cli", "spectrum", "--mesh", "/dev/stdin",
             "--mesh-format", "off", "--count", "3"],
            stdin=fh, capture_output=True, text=True, timeout=120,
        )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["size"] == 3


@pytest.mark.parametrize("argv, message, detail", [
    (["check", "--ineq", "main", "--model", "torus", "--lattice", "a b; c d"],
     "cannot parse lattice 'a b; c d'", {"lattice": "a b; c d"}),
    (["check", "--ineq", "main", "--model", "torus", "--lattice", "1 0; 0"],
     "lattice rows must form a square matrix", {"lattice": "1 0; 0"}),
    (["spectrum", "--model", "torus", "--lattice", LATTICE, "--spin", "0,1/3"],
     "spin shifts must be 0 or 1/2, got '1/3'", {"token": "1/3"}),
    (["spectrum", "--model", "torus", "--lattice", LATTICE, "--spin", "0"],
     "spin structure has 1 shifts, lattice dimension is 2", {"shifts": 1, "dim": 2}),
    (["check", "--ineq", "main", "--model", "sphere", "--j-range", "1-3"],
     "j-range must look like a:b, got '1-3'", {}),
    (["check", "--ineq", "main", "--model", "sphere", "--j-range", "3:1"],
     "empty j-range '3:1'", {"lo": 3, "hi": 1}),
    (["sweep", "--ratio-grid", "1:2"], "ratio grid must look like start:stop:step, got '1:2'",
     {}),
    (["sweep", "--ratio-grid", "1:2:0"], "grid step must be positive, got 0", {}),
    (["sweep", "--ratio-grid", "1:2:-0.5"], "grid step must be positive, got -0.5", {}),
    (["spectrum", "--model", "sphere", "--mesh", "{mesh}"],
     "pass either --model or --mesh, not both", {}),
    (["spectrum"], "spectrum needs --model or --mesh", {"parameter": "model"}),
    (["check", "--ineq", "main"], "check needs --model, --mesh, or a probe lattice", {}),
    (["check", "--model", "sphere"], "check needs --ineq", {"parameter": "ineq"}),
    (["sweep"], "sweep needs --ratio-grid", {"parameter": "ratio_grid"}),
    (["prooflab", "--mesh", "{mesh}"],
     "task must be prop31, anghel, identities, or refinement", {"task": None}),
    (["prooflab", "--task", "prop31"], "prooflab needs --mesh", {"parameter": "mesh"}),
    (["prooflab", "--task", "refinement"], "refinement needs --mesh-list",
     {"parameter": "mesh_list"}),
    (["spectrum", "--model", "torus"], "torus model needs --lattice", {"parameter": "lattice"}),
    (["check", "--ineq", "main", "--model", "torus"], "torus model needs --lattice",
     {"parameter": "lattice"}),
    (["check", "--ineq", "conjecture"], "the conjecture probe needs --lattice",
     {"parameter": "lattice"}),
    (["check", "--ineq", "conjecture", "--model", "clifford-torus", "--lattice", LATTICE],
     "--model clifford-torus fixes its lattice; drop --lattice", {"parameter": "lattice"}),
])
def test_usage_error(ico2, capsys, argv, message, detail):
    code, out, err = run(capsys, [a.format(mesh=ico2) for a in argv])
    assert (code, out) == (2, "")
    assert err == {"kind": "usage", "message": message, "detail": detail}


@pytest.mark.parametrize("flag, value, message", [
    ("--area", "0", "area must be positive, got 0"),
    ("--volume", "-1", "volume must be positive, got -1"),
])
def test_area_and_volume_checked_at_parse_time(ico2, capsys, monkeypatch, flag, value,
                                               message):
    """Rejected before the mesh is solved, naming the flag given, though
    a given volume is also the fallback of area."""
    solves = []
    monkeypatch.setattr(cli, "solve_smallest", lambda *args, **kwargs: solves.append(args))
    code, out, err = run(capsys, ["check", "--ineq", "background", "--mesh", ico2,
                                  "--genus", "0", flag, value])
    assert (code, out, solves) == (2, "", [])
    assert err == {"kind": "usage", "message": message,
                   "detail": {"parameter": flag[2:], "value": float(value)}}


@pytest.mark.parametrize("argv", [
    ["sweep", "--ratio-grid", "1:1:0.1", "--count", "2"],
    ["sweep", "--ratio-grid", "1:1:0.1", "--count", "3"],
    ["check", "--ineq", "conjecture", "--lattice", "clifford", "--count", "2"],
])
def test_probe_count_below_what_it_reads(capsys, monkeypatch, argv):
    """The trivial spin structure's Gbar_2 is its fourth value: a smaller
    count is the usage error of check's other ids, raised before any dual
    lattice is enumerated."""
    enumerated = []
    monkeypatch.setattr(models, "_shifted_dual_norms", lambda *args: enumerated.append(args))
    code, out, err = run(capsys, argv)
    assert (code, out, enumerated) == (2, "", [])
    assert err == {"kind": "usage",
                   "message": "count %s is below the 4 values the requested checks read"
                   % argv[-1],
                   "detail": {"parameter": "count", "required": 4}}


@pytest.mark.parametrize("entry, message", [
    (None, "cannot read config file: [Errno 2] No such file or directory: '{path}'"),
    ("{", "config file is not valid JSON: Expecting property name enclosed in double "
          "quotes: line 1 column 2 (char 1)"),
])
def test_config_file_error(tmp_path, capsys, entry, message):
    path = tmp_path / "cfg.json"
    if entry is not None:
        path.write_text(entry)
    code, out, err = run(capsys, ["spectrum", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err == {"kind": "usage", "message": message.format(path=path),
                   "detail": {"path": str(path)}}


def prop31(capsys, mesh, *flags):
    code, out, err = run(capsys, ["prooflab", "--task", "prop31", "--mesh", mesh, *flags])
    assert (code, err) == (0, None)
    return json.loads(out)


def test_prooflab_count_solves_a_sparse_basis(ico2, capsys):
    """--count sizes a sparse basis and the expansion's truncation.  Nine
    values end the l = 2 eigenspace, so the sum is basis-invariant."""
    sparse = prop31(capsys, ico2, "--count", "9")
    dense = prop31(capsys, ico2, "--trunc", "9")
    assert sparse["truncation_K"] == dense["truncation_K"] == 9
    assert sparse["lhs"] == pytest.approx(dense["lhs"], rel=1e-8)
    assert sparse["rhs"] == pytest.approx(dense["rhs"], rel=1e-8)


def test_prooflab_seeded_psi(ico2, capsys):
    """seed:N is the standard normal field of numpy's default generator."""
    report = prop31(capsys, ico2, "--psi", "seed:5")
    assert prop31(capsys, ico2, "--psi", "seed:5") == report
    assert prop31(capsys, ico2, "--psi", "seed:6") != report
    mesh = load_mesh(ico2)
    ops = assemble_operators(mesh)
    psi = np.random.default_rng(5).standard_normal(mesh.n_vertices)
    expected = verify_prop31(ops, dense_eigenbasis(ops), psi, 1)
    assert report["lhs"] == pytest.approx(expected.lhs, rel=1e-9)
