"""End-to-end command-line behavior: artifacts, exit codes, determinism."""

import csv
import dataclasses
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from specgeom.cli import MAX_COUNT, _source, build_parser, main
from specgeom.errors import SolverConvergenceError
from specgeom.mesh import assemble_operators, extrinsic_summary, load_mesh
from specgeom.meshgen import icosphere, write_obj, write_off
from specgeom.models import all_spin_structures


@pytest.fixture(scope="module")
def ico_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("meshes")
    paths = {}
    for level in (2, 3):
        verts, faces = icosphere(level)
        path = root / f"ico{level}.off"
        write_off(path, verts, faces)
        paths[level] = str(path)
    return paths


@pytest.fixture(scope="module")
def two_sphere_file(two_sphere_mesh, tmp_path_factory):
    path = tmp_path_factory.mktemp("two") / "two.off"
    write_off(path, two_sphere_mesh.vertices, two_sphere_mesh.faces)
    return str(path)


@pytest.fixture(scope="module")
def three_sphere_file(tmp_path_factory):
    verts, faces = icosphere(2)
    path = tmp_path_factory.mktemp("three") / "three.off"
    write_off(
        path,
        np.vstack([verts + [5.0 * i, 0.0, 0.0] for i in range(3)]),
        np.vstack([faces + i * len(verts) for i in range(3)]),
    )
    return str(path)


@pytest.fixture
def solve_sizes(monkeypatch):
    """The k of every sparse solve the CLI makes."""
    import specgeom.cli as cli_mod
    from specgeom.eigensolve import solve_smallest as real_solve

    sizes = []

    def spy(ops, k, **kwargs):
        sizes.append(k)
        return real_solve(ops, k, **kwargs)

    monkeypatch.setattr(cli_mod, "solve_smallest", spy)
    return sizes


@pytest.fixture
def loaded_meshes(monkeypatch):
    """Every mesh the CLI loads."""
    import specgeom.cli as cli_mod

    meshes = []
    real_load = cli_mod.load_mesh

    def spy(path, fmt=None):
        meshes.append(real_load(path, fmt))
        return meshes[-1]

    monkeypatch.setattr(cli_mod, "load_mesh", spy)
    return meshes


@pytest.fixture
def source_builds(monkeypatch):
    """The count of every spectrum the CLI builds from a model or mesh."""
    import specgeom.cli as cli_mod

    counts = []
    real_source = cli_mod._source

    def spy(cfg, path=None):
        src = real_source(cfg, path)
        if src is None:
            return None

        def spied(count):
            counts.append(count)
            return src.build(count)

        return dataclasses.replace(src, build=spied)

    monkeypatch.setattr(cli_mod, "_source", spy)
    return counts


@pytest.fixture
def orderings(monkeypatch):
    """The mesh of every nested-dissection order computed."""
    import specgeom.mesh as mesh_mod

    meshes = []
    real_order = mesh_mod.nested_dissection

    def spy(mesh):
        meshes.append(mesh)
        return real_order(mesh)

    monkeypatch.setattr(mesh_mod, "nested_dissection", spy)
    return meshes


@pytest.fixture(scope="module")
def ico5_file(tmp_path_factory):
    """A 10,242-vertex icosphere, above the dense oracle's cap."""
    path = tmp_path_factory.mktemp("ico5") / "ico5.off"
    write_off(path, *icosphere(5))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return code, doc, err


class TestSpectrum:
    def test_sphere_dirac_values(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["spectrum", "--model", "sphere", "--dim", "2", "--operator",
             "dirac", "--count", "20"],
        )
        assert code == 0
        assert doc["values"][:5] == [1, 1, 1, 1, 4]
        assert len(doc["values"]) == 20

    def test_torus_spin_implies_dirac(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["spectrum", "--model", "torus", "--lattice", "6.2832 0; 0 6.2832",
             "--spin", "0.5,0.5", "--count", "8"],
        )
        assert code == 0
        assert doc["operator"] == "dirac_squared"
        assert doc["values"][0] == pytest.approx(0.5, rel=1e-3)

    def test_clifford_laplace(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["spectrum", "--model", "clifford-torus", "--operator", "laplace",
             "--count", "6"],
        )
        assert code == 0
        np.testing.assert_allclose(doc["values"], [0, 2, 2, 2, 2, 4], atol=1e-12)

    def test_mesh_spectrum_deterministic(self, ico_files, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            assert main(
                ["spectrum", "--mesh", ico_files[3], "--operator", "laplace",
                 "--count", "13", "--seed", "7", "--output", str(out)]
            ) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_include_vectors_sidecar(self, ico_files, tmp_path):
        out = tmp_path / "basis.json"
        code = main(
            ["spectrum", "--mesh", ico_files[2], "--count", "5",
             "--include-vectors", "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        sidecar = tmp_path / "basis.json.vectors.bin"
        assert sidecar.exists()
        data = np.frombuffer(sidecar.read_bytes(), dtype="<f8")
        assert data.size == doc["vectors_shape"][0] * doc["vectors_shape"][1]

    @pytest.mark.parametrize("argv", [
        ["--mesh", "{mesh}"],
        ["--model", "sphere", "--output", "{out}"],
        ["--model", "sphere"],
    ])
    def test_include_vectors_needs_mesh_and_output(self, ico_files, tmp_path, capsys, argv):
        """Without both, no sidecar could be written: a usage error, not a
        vectors_shape on stdout or a silently ignored flag."""
        out = tmp_path / "basis.json"
        argv = [a.format(mesh=ico_files[2], out=out) for a in argv]
        code, doc, err = run_json(capsys, ["spectrum", *argv, "--count", "3",
                                           "--include-vectors"])
        assert (code, doc, err["kind"]) == (2, None, "usage")
        assert err["detail"] == {"parameter": "include_vectors"}
        assert list(tmp_path.iterdir()) == []

    def test_tol_below_floor_rejected(self, ico_files, capsys, loaded_meshes):
        code = main(["spectrum", "--mesh", ico_files[2], "--tol", "1e-13"])
        assert code == 2
        assert capsys.readouterr().err == (
            '{"kind": "usage", "message": "tol 1e-13 outside [1e-12, 0.01]", '
            '"detail": {"tol": 1e-13}}\n'
        )
        assert loaded_meshes == []

    def test_dirac_on_mesh_rejected(self, ico_files, capsys, loaded_meshes):
        """Rejected before the mesh is loaded, naming the operator that a
        spin structure selects too."""
        for flags in (["--operator", "dirac"], ["--spin", "0,0"]):
            code, doc, err = run_json(
                capsys, ["spectrum", "--mesh", ico_files[2], *flags, "--count", "4"])
            assert (code, doc) == (2, None)
            assert err == {"kind": "usage", "message": "mesh spectra are scalar Laplace only",
                           "detail": {"operator": "dirac"}}
        assert loaded_meshes == []

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "torus", "--lattice", "1 0; 0 1", "--operator", "laplace",
         "--spin", "0,1/2", "--count", "4"],
        ["spectrum", "--model", "sphere", "--operator", "dirac", "--spin", "1/2,1/2",
         "--count", "4"],
        ["check", "--ineq", "main", "--model", "sphere", "--spin", "0,0"],
        ["check", "--ineq", "main", "--model", "clifford-torus", "--operator", "laplace",
         "--spin", "0,0"],
    ])
    def test_spin_that_no_spectrum_reads_rejected(self, capsys, argv):
        """A sphere has one spin structure and the Laplacian reads none: the
        spectrum printed without the spin would pass for the one asked for."""
        code, doc, err = run_json(capsys, argv)
        assert (code, doc, err["kind"]) == (2, None, "usage")
        assert err["detail"] == {"parameter": "spin"}

    def test_spin_config_entry_on_a_laplace_torus_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "torus", "lattice": "1 0; 0 1", "spin": "0,1/2"}\n')
        code, doc, err = run_json(
            capsys, ["check", "--ineq", "main", "--operator", "laplace", "--config", str(cfg)])
        assert (code, doc, err["detail"]) == (2, None, {"parameter": "spin"})

    def test_malformed_off_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.off"
        bad.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n")
        code, _, err = run_json(
            capsys, ["spectrum", "--mesh", str(bad), "--count", "4"]
        )
        assert code == 2
        assert err["kind"] == "mesh-parse"
        assert "line" in err["detail"]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_json(
            capsys, ["spectrum", "--mesh", str(tmp_path / "no.off"), "--count", "4"]
        )
        assert code == 2

    def test_bad_lattice_exits_2(self, capsys):
        code, _, err = run_json(
            capsys,
            ["spectrum", "--model", "torus", "--lattice", "1 2; 2 4",
             "--count", "4"],
        )
        assert code == 2

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_lattice_rejected(self, capsys, entry):
        lattice = "%s 0; 0 1" % entry
        code, _, err = run_json(
            capsys,
            ["spectrum", "--model", "torus", "--lattice", lattice, "--count", "4"],
        )
        assert code == 2
        assert err["kind"] == "usage"
        assert err["message"] == "lattice entries must be finite"
        assert err["detail"] == {"lattice": lattice}

    @pytest.mark.parametrize("argv, detail", [
        (["spectrum", "--dim", "2", "--radius", "1e308"], {"n": 2, "radius": 1e308}),
        (["spectrum", "--dim", "2", "--radius", "1e-308"], {"n": 2, "radius": 1e-308}),
        (["check", "--ineq", "reilly1", "--dim", "400"], {"n": 400, "radius": 1}),
        (["check", "--ineq", "reilly1", "--dim", "300", "--radius", "0.01"],
         {"n": 300, "radius": 0.01}),
    ])
    def test_sphere_constants_outside_float_range_exit_2(self, capsys, argv, detail):
        """A radius whose square overflows or underflows, or a volume that
        underflows to 0 where a check reads it, is an invalid model, not
        a crash (exit 1) or an error about a volume the user never gave."""
        code, doc, err = run_json(capsys, [argv[0], "--model", "sphere", *argv[1:]])
        assert (code, doc, err["kind"], err["detail"]) == (2, None, "invalid-model", detail)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--dim", "30000", "--operator", "dirac", "--count", "1"],
        ["check", "--ineq", "background", "--dim", "3000", "--operator", "dirac",
         "--b-sq-sup", "1"],
        ["check", "--ineq", "background", "--dim", "3000", "--operator", "laplace",
         "--b-sq-sup", "1"],
    ])
    def test_spinor_rank_outside_float_range_exits_2(self, capsys, argv):
        """A spinor rank 2^[n/2] past the largest float is an invalid model,
        not an internal error (exit 4): a multiplicity past JSON's digit
        limit, or a rank factor that does not convert to a float."""
        code, doc, err = run_json(capsys, [argv[0], "--model", "sphere", *argv[1:]])
        assert (code, doc, err["kind"], err["detail"]) == (
            2, None, "invalid-model", {"n": int(argv[argv.index("--dim") + 1])})

    @pytest.mark.parametrize("argv", [
        ["check", "--ineq", "main", "--dim", "1000", "--operator", "dirac"],
        ["check", "--ineq", "main", "--dim", "400"],
        ["spectrum", "--dim", "300", "--radius", "0.01"],
        ["spectrum", "--dim", "1000", "--operator", "dirac", "--count", "4"],
    ])
    def test_sphere_volume_computed_only_when_read(self, capsys, argv):
        """The volume of S^400, or of S^300 at radius 0.01, underflows and
        that of S^1000 overflows, but neither main nor the spectrum reads
        it, so both run."""
        code, doc, err = run_json(capsys, [argv[0], "--model", "sphere", *argv[1:]])
        assert (code, err) == (0, None)
        assert doc["reports"][0]["satisfied"] if argv[0] == "check" else doc["values"]

    def test_non_finite_error_detail_is_written_as_string(self, tmp_path, capsys):
        """An overflowing mesh reports area inf as one JSON object, exit 2."""
        verts, faces = icosphere(1)
        path = tmp_path / "huge.off"
        write_off(path, verts * 1e200, faces)
        code = main(["spectrum", "--mesh", str(path), "--count", "4"])
        err = capsys.readouterr().err
        assert code == 2
        doc = json.loads(err)
        assert doc["kind"] == "mesh-validation"
        assert doc["detail"]["area"] == "inf"

    def test_mesh_with_huge_coordinates_checked(self, tmp_path, capsys):
        """Face areas near 1e200 are representable and pass validation.  The
        solve at that scale finds no zero mode, so reilly1, which reads the
        mesh's one component as its kernel, refuses the spectrum."""
        verts, faces = icosphere(2)
        path = tmp_path / "huge.off"
        write_off(path, verts * 1e100, faces)
        areas = load_mesh(str(path)).face_area
        assert 1e198 < areas.min() and areas.max() < 1e201
        code, doc, err = run_json(capsys, ["check", "--ineq", "main,reilly1", "--mesh", str(path)])
        assert (code, doc) == (2, None)
        assert err == {
            "kind": "inconsistent-kernel",
            "message": "claimed kernel dimension 1 but the spectrum has 0 zero modes",
            "detail": {"claimed": 1, "zero_dim": 0},
        }

    def test_solver_failure_maps_to_3(self, ico_files, capsys, monkeypatch):
        import specgeom.cli as cli_mod

        def explode(*args, **kwargs):
            raise SolverConvergenceError("iteration stalled", worst_residual=1.0)

        monkeypatch.setattr(cli_mod, "solve_smallest", explode)
        code, _, err = run_json(
            capsys, ["spectrum", "--mesh", ico_files[2], "--count", "4"]
        )
        assert code == 3
        assert err["kind"] == "solver-convergence"


OBLIQUE = ["--model", "torus", "--lattice", "1 0; 0.5 1"]
# three circles of radius 1/sqrt3: a minimal torus in the unit 5-sphere
EDGE = 2.0 * math.pi / math.sqrt(3.0)
CUBIC = ["--model", "torus", "--lattice", "%r 0 0; 0 %r 0; 0 0 %r" % ((EDGE,) * 3)]
# flat tori and their dimensions: rectangular, oblique, cubic and Clifford
TORI = [(["--model", "torus", "--lattice", "1 0; 0 1.3"], 2),
        (["--model", "torus", "--lattice", "1 0.3; 0 1"], 2), (CUBIC, 3),
        (["--model", "clifford-torus"], 2)]


class TestCheck:
    def test_main_sphere_equality(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["check", "--ineq", "main", "--model", "sphere", "--dim", "2",
             "--operator", "laplace", "--j", "1"],
        )
        assert code == 0
        report = doc["reports"][0]
        assert report["margin"] == 0
        assert report["equality"] is True
        assert doc["all_satisfied"] is True

    def test_reilly_on_mesh(self, ico_files, capsys):
        code, doc, _ = run_json(
            capsys, ["check", "--ineq", "reilly1", "--mesh", ico_files[3]]
        )
        assert code == 0
        assert doc["reports"][0]["satisfied"] is True

    def test_conjecture_exploratory_exit(self, capsys):
        code, doc, _ = run_json(
            capsys, ["check", "--ineq", "conjecture", "--lattice", "clifford"]
        )
        assert code == 0
        reports = doc["reports"]
        assert len(reports) == 4
        assert all(r["exploratory"] for r in reports)
        assert any(not r["satisfied"] for r in reports)

    def test_unsatisfied_check_exits_1(self, capsys):
        # inflating the curvature constant past the sphere value breaks
        # the lower bound, which must flip the exit code
        code, doc, _ = run_json(
            capsys,
            ["check", "--ineq", "background", "--model", "sphere", "--dim",
             "2", "--operator", "dirac", "--s0", "4.0"],
        )
        assert code == 1
        assert doc["reports"][0]["satisfied"] is False

    def test_missing_parameter_named(self, ico_files, capsys):
        code, _, err = run_json(
            capsys, ["check", "--ineq", "index", "--mesh", ico_files[2]]
        )
        assert code == 2
        assert err["detail"]["parameter"] == "b_sq_sup"

    @pytest.mark.parametrize("argv, key", [
        (["--model", "sphere", "--dim", "2", "--operator", "laplace"], "sup_term"),
    ])
    def test_projective_names_its_missing_parameter(self, capsys, argv, key):
        code, doc, err = run_json(capsys, ["check", "--ineq", "projective", *argv])
        assert (code, doc, err["kind"]) == (2, None, "usage")
        assert err["detail"] == {"parameter": key, "ineq": "projective"}

    @pytest.mark.parametrize("argv, code, part, key, value", [
        pytest.param(["main", *OBLIQUE, "--operator", "dirac", "--h-sq", "1"],
                     1, "terms", "r_term", 0.0, id="main-dirac-oblique"),
        pytest.param(["projective", "--minimal", *OBLIQUE],
                     1, "terms", "s_inf", 0.0, id="projective-minimal-oblique"),
        pytest.param(["reilly2", *CUBIC, "--hbar1-integral", "1"],
                     0, "params", "volume", EDGE**3, id="reilly2-cubic"),
        pytest.param(["sphere", *CUBIC], 0, "terms", "h_term", 9.0, id="sphere-cubic"),
        # a generator and its negative span one lattice
        pytest.param(["main", "--model", "torus", "--lattice", "-1 0; 0 1"],
                     0, "terms", "h_term", 8.0 * math.pi**2, id="main-negative-generator"),
    ])
    def test_flat_torus_constants_from_lattice(self, capsys, argv, code, part, key,
                                               value):
        """Every flat torus has S = 0, so kappa = s_inf = 0, and its covolume
        as volume; a product of circles also fixes h_sq = sum r_i^-2 / n^2
        (1 on the cubic torus, so h_term = n^2 h_sq = 9).  Each case reads
        one of these constants without a flag for it."""
        got, doc, err = run_json(capsys, ["check", "--ineq", *argv])
        assert (got, err) == (code, None)
        assert doc["reports"][0][part][key] == pytest.approx(value, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m, code, kind", [
        ([], 0, None), (["--m", "2"], 0, None), (["--m", "0"], 2, "inconsistent-kernel"),
    ])
    def test_background_checks_the_claimed_kernel(self, capsys, m, code, kind):
        """The solve is sized from --m, so a wrong --m is the error reilly1
        gives, not an index past the resolved spectrum."""
        got, doc, err = run_json(
            capsys, ["check", "--ineq", "background", "--model", "torus", "--lattice",
                     "clifford", "--operator", "dirac", "--b-sq-sup", "1", *m])
        assert got == code
        if kind is None:
            assert doc["reports"][0]["ineq_id"] == "second-form-first-nonzero"
        else:
            assert err["kind"] == kind
            assert err["detail"] == {"claimed": 0, "zero_dim": 2}

    def test_insufficient_count_validated_before_compute(self, capsys):
        code, _, err = run_json(
            capsys,
            ["check", "--ineq", "main", "--model", "sphere", "--dim", "2",
             "--operator", "laplace", "--j", "1", "--count", "2"],
        )
        assert code == 2
        assert err["detail"]["parameter"] == "count"

    @pytest.mark.parametrize(
        "argv", [["--ineq", "reilly1"], ["--ineq", "index", "--b-sq-sup", "10"]]
    )
    def test_multi_component_mesh_sized_from_its_kernel(
        self, two_sphere_file, capsys, solve_sizes, argv
    ):
        """Two components give a kernel of dimension 2, known before the
        solve: one solve reaches the indices the check reads, as --count 4
        gives, and --count 3 fails before any solve."""
        argv = ["check", "--mesh", two_sphere_file] + argv
        code, doc, _ = run_json(capsys, argv)
        assert code == 0
        assert doc["reports"][0]["params"]["m"] == 2
        code, doc_with_count, _ = run_json(capsys, argv + ["--count", "4"])
        assert code == 0
        assert doc == doc_with_count
        assert solve_sizes == [4, 4]
        code, _, err = run_json(capsys, argv + ["--count", "3"])
        assert code == 2
        assert err["message"] == "count 3 is below the 4 values the requested checks read"
        assert err["detail"] == {"parameter": "count", "required": 4}
        assert solve_sizes == [4, 4]

    def test_mesh_loaded_once(self, two_sphere_file, capsys, monkeypatch, solve_sizes):
        import specgeom.cli as cli_mod

        paths = []
        real_load = cli_mod.load_mesh

        def spy(path, fmt=None):
            paths.append(path)
            return real_load(path, fmt)

        monkeypatch.setattr(cli_mod, "load_mesh", spy)
        code, _, _ = run_json(capsys, ["check", "--ineq", "reilly1", "--mesh", two_sphere_file])
        assert code == 0
        assert paths == [two_sphere_file]
        assert solve_sizes == [4]

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--count", "4"],
        ["prooflab", "--task", "identities"],
        ["check", "--ineq", "reilly1", "--m", "1"],
        ["check", "--ineq", "main"],
    ])
    def test_components_counted_only_for_check_without_m(
        self, ico_files, capsys, loaded_meshes, argv
    ):
        assert main([*argv, "--mesh", ico_files[2]]) == 0
        assert "n_components" not in loaded_meshes[0].__dict__
        assert main(["check", "--ineq", "reilly1", "--mesh", ico_files[2]]) == 0
        assert loaded_meshes[1].__dict__["n_components"] == 1

    def test_kernel_of_three_components_counted(self, three_sphere_file, capsys):
        """With j = 1 every kept value is a kernel value; the count still
        reads all three."""
        code, doc, _ = run_json(
            capsys, ["check", "--ineq", "main", "--mesh", three_sphere_file, "--j", "1"]
        )
        assert code == 0
        assert doc["reports"][0]["params"]["zero_dim"] == 3

    @pytest.mark.parametrize("argv", [
        ["--model", "sphere", "--operator", operator, "--dim", str(n), "--radius", radius]
        for operator, dims in (("laplace", (1, 2, 3, 5)), ("dirac", (2, 3, 4, 5)))
        for n in dims for radius in ("0.5", "1")
    ] + [[*torus, "--operator", "laplace"] for torus, _ in TORI] + [
        [*torus, "--operator", "dirac", "--spin", spin.label()]
        for torus, dim in TORI for spin in all_spin_structures(dim)
    ])
    def test_model_kernel_is_its_spectrum_zero_count(self, argv):
        """A model states its kernel m in closed form; that m sizes a
        check's solve and is what the kernel means check, so it must be the
        zero count of the spectrum the model builds."""
        src = _source(vars(build_parser().parse_args(["check", *argv])))
        assert src.fallbacks["m"] == src.build(8).zero_dim

    def test_connected_mesh_solved_once(self, ico_files, capsys, solve_sizes):
        code, _, _ = run_json(capsys, ["check", "--ineq", "reilly1", "--mesh", ico_files[2]])
        assert code == 0
        assert solve_sizes == [3]

    def test_j_zero_rejected_before_any_solve(self, ico_files, capsys, solve_sizes):
        code, doc, err = run_json(
            capsys, ["check", "--ineq", "main", "--mesh", ico_files[2], "--j", "0"]
        )
        assert (code, doc) == (2, None)
        assert err == {
            "kind": "index-range",
            "message": "index j must be >= 1, got 0",
            "detail": {"index": 0},
        }
        assert solve_sizes == []

    @pytest.mark.parametrize("flags, key", [
        (["--genus", "0", "--area", "0"], "area"),
        (["--genus", "0", "--area", "-0.0"], "area"),
        (["--h-sq-integral", "1", "--volume", "0"], "volume"),
        (["--htilde-sq-integral", "1", "--volume", "0"], "volume"),
        (["--yang-k", "0"], "yang_k"),
        (["--gap-k", "0"], "gap_k"),
        (["--genus", "-3"], "genus"),
        (["--genus", "0.5"], "genus"),
    ])
    def test_background_input_out_of_range_named(self, capsys, flags, key):
        """Not a division by zero (exit 1), a vacuous report, or an index
        error that does not name the flag."""
        code, doc, err = run_json(
            capsys, ["check", "--ineq", "background", "--model", "sphere", "--dim", "2",
                     *flags])
        assert (code, doc, err["kind"]) == (2, None, "usage")
        assert err["detail"]["parameter"] == key

    @pytest.mark.parametrize("genus", ["-3", "0.5", "-1e-300"])
    def test_genus_config_entry_must_be_a_nonnegative_integer(self, tmp_path, capsys, genus):
        """A negative or fractional genus is a usage error naming genus, not
        a failed genus-area bound (exit 1)."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"genus": %s}\n' % genus)
        code, doc, err = run_json(capsys, ["check", "--ineq", "background", "--model", "sphere",
                                           "--operator", "dirac", "--config", str(cfg)])
        assert (code, doc, err["kind"]) == (2, None, "usage")
        assert err["detail"] == {"parameter": "genus", "value": float(genus)}

    @pytest.mark.parametrize("argv", [
        ["check", "--ineq", "conjecture,main", "--operator", "laplace"],
        ["spectrum"],
    ])
    def test_clifford_model_fixes_its_lattice(self, capsys, argv):
        """The probe and the model never read two different tori."""
        code, doc, err = run_json(
            capsys, [*argv, "--model", "clifford-torus",
                     "--lattice", "6.283185307179586 0; 0 3.14159"])
        assert (code, doc, err["kind"]) == (2, None, "usage")
        assert err["detail"] == {"parameter": "lattice"}

    def test_unknown_ineq_listed(self, capsys):
        code, _, err = run_json(
            capsys,
            ["check", "--ineq", "nope", "--model", "sphere", "--dim", "2"],
        )
        assert code == 2
        assert "known:" in err["message"]

    @staticmethod
    def mesh_h_sq_sup(path):
        mesh = load_mesh(path)
        return float(np.max(extrinsic_summary(mesh, assemble_operators(mesh)).H_sq))

    @pytest.mark.parametrize(
        "ineq, constant", [("eta", "c_sup"), ("universal-euclidean", "c1")]
    )
    def test_mesh_curvature_constant_defaults_to_sup(
        self, ico_files, capsys, ineq, constant
    ):
        """Without --c-sup/--c1 a mesh uses n^2 sup H^2, never the raw field."""
        code, doc, _ = run_json(
            capsys, ["check", "--ineq", ineq, "--mesh", ico_files[3],
                     "--j-range", "1:3"]
        )
        assert code in (0, 1)
        reports = doc["reports"]
        assert len(reports) == 3
        h_sq_sup = self.mesh_h_sq_sup(ico_files[3])
        for report in reports:
            assert np.isfinite(report["margin"])
            assert report["params"][constant] == 4.0 * h_sq_sup

    def test_mesh_background_gap_bounds_use_sup(self, ico_files, capsys):
        code, doc, _ = run_json(
            capsys, ["check", "--ineq", "background", "--mesh", ico_files[3],
                     "--gap-k", "2", "--yang-k", "3"]
        )
        assert code in (0, 1)
        h_sq_sup = self.mesh_h_sq_sup(ico_files[3])
        assert len(doc["reports"]) == 2
        for report in doc["reports"]:
            assert np.isfinite(report["margin"])
            assert report["params"]["H_sq"] == h_sq_sup

    def test_mesh_projective_minimal_uses_scalar_curvature_inf(self, ico_files, capsys):
        code, doc, _ = run_json(
            capsys, ["check", "--ineq", "projective", "--mesh", ico_files[2],
                     "--minimal"]
        )
        assert code == 0
        mesh = load_mesh(ico_files[2])
        s_inf = float(np.min(extrinsic_summary(mesh, assemble_operators(mesh)).S))
        assert doc["reports"][0]["terms"]["s_inf"] == s_inf

    def test_j_range_csv(self, capsys):
        code = main(
            ["check", "--ineq", "main", "--model", "sphere", "--dim", "2",
             "--operator", "laplace", "--j-range", "1:4", "--csv"]
        )
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("ineq_id,")
        assert len(lines) == 5

    def test_model_suite_all_spins(self, capsys):
        """Square torus, all four spin structures, several bounds at once."""
        for spin in ("0,0", "0,1/2", "1/2,0", "1/2,1/2"):
            code, doc, _ = run_json(
                capsys,
                ["check", "--ineq", "main,universal-euclidean,lp-spin",
                 "--model", "torus", "--lattice", "clifford",
                 "--spin", spin, "--j", "1", "--count", "64"],
            )
            assert code == 0, spin
            assert doc["all_satisfied"] is True


class TestSweep:
    def test_row_count_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        argv = ["sweep", "--ratio-grid", "0.5:2.0:0.1"]
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        lines = b1.decode().strip().split("\n")
        assert lines[0] == "ratio,spin,ineq_id,lhs,rhs,margin,satisfied"
        assert len(lines) == 1 + 16 * 4

    def test_empty_grid_exits_2(self, capsys):
        code, _, err = run_json(
            capsys,
            ["sweep", "--ratio-grid", "2.0:0.5:0.1"],
        )
        assert code == 2

    def test_workers_flag_removed(self, capsys):
        code, _, err = run_json(
            capsys, ["sweep", "--ratio-grid", "1:1:1", "--workers", "2"]
        )
        assert code == 2
        assert err["kind"] == "usage"

    def test_workers_config_key_removed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ratio_grid": "1:1:1", "workers": 2}\n')
        code, _, err = run_json(capsys, ["sweep", "--config", str(cfg)])
        assert code == 2
        assert err["detail"] == {"key": "workers"}

    def test_family_flag_and_config_key_removed(self, tmp_path, capsys):
        code, _, err = run_json(
            capsys, ["sweep", "--ratio-grid", "1:1:1", "--family", "torus-lattice"]
        )
        assert (code, err["kind"]) == (2, "usage")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ratio_grid": "1:1:1", "family": "torus-lattice"}\n')
        code, _, err = run_json(capsys, ["sweep", "--config", str(cfg)])
        assert code == 2
        assert err["detail"] == {"key": "family"}

    @pytest.mark.parametrize("argv, detail", [
        (["--ratio-grid", "nan:1:0.1"], {"start": "nan", "stop": 1, "step": 0.1}),
        (["--ratio-grid", "1:inf:0.1"], {"start": 1, "stop": "inf", "step": 0.1}),
        (["--ratio-grid", "1:1.1:0.1", "--area", "-1"], {"area": -1}),
        (["--ratio-grid", "1:1.1:0.1", "--area", "nan"], {"area": "nan"}),
    ])
    def test_non_finite_or_negative_inputs_exit_2(self, capsys, argv, detail):
        code, doc, err = run_json(capsys, ["sweep", *argv])
        assert (code, doc, err["kind"], err["detail"]) == (2, None, "usage", detail)

    def test_non_finite_area_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ratio_grid": "1:1.1:0.1", "area": "nan"}\n')
        code, doc, err = run_json(capsys, ["sweep", "--config", str(cfg)])
        assert (code, doc, err["kind"], err["detail"]) == (2, None, "usage", {"area": "nan"})

    def test_count_above_what_the_probe_reads_changes_nothing(self, capsys):
        """Each spectrum is built up to the kernel plus 2 values, at most 4,
        so a larger --count leaves every row of all four spin structures as
        it is, byte for byte."""
        outs = []
        for count in ("4", "64", "256"):
            assert main(["sweep", "--ratio-grid", "0.5:4.0:0.25", "--count", count]) == 0
            outs.append(capsys.readouterr().out)
        rows = list(csv.reader(outs[0].splitlines()[1:]))
        assert len(rows) == 4 * 15
        assert {row[1] for row in rows} == {"0,0", "0,1/2", "1/2,0", "1/2,1/2"}
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_rows_are_the_probe_reports_of_each_ratio(self, capsys):
        """The sweep enumerates its ratios a chunk at a time, in boxes that
        differ about 50 times over this grid; each row is still the report
        the probe gives that ratio's lattice alone."""
        from specgeom.cli import _parse_grid
        from specgeom.inequalities import conjecture_probe, probe_reports
        from specgeom.models import Lattice
        from specgeom.serialize import format_float

        assert main(["sweep", "--ratio-grid", "0.02:50:2.5", "--area", "3"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()[1:]))
        want = []
        for ratio in _parse_grid("0.02:50:2.5"):
            r1 = math.sqrt(3.0 / (4.0 * math.pi**2 * ratio))
            lat = Lattice(np.diag([2.0 * math.pi * r1, 2.0 * math.pi * r1 * ratio]))
            reports = probe_reports(conjecture_probe(lat.basis[None], area=3.0))
            want.extend([format_float(ratio), rep.params["spin"], rep.ineq_id,
                         *map(format_float, (rep.lhs, rep.rhs, rep.margin)),
                         str(rep.satisfied).lower()] for rep in reports)
        assert len(rows) == 4 * 21 and rows == want

    def test_a_last_ratio_past_the_box_limit_exits_2(self, capsys):
        """Ratio 3e7 needs a dual box past MAX_DUAL_BOX; ratio 1 before it
        does not.  Its own box is checked, not its chunk's: the sweep exits
        2 with the limit and prints no rows."""
        code, doc, err = run_json(capsys, ["sweep", "--ratio-grid", "1:30000001:30000000"])
        assert (code, doc, err["kind"], err["detail"]) == (2, None, "invalid-model",
                                                           {"limit": 10**8})
        assert main(["sweep", "--ratio-grid", "1:1:1"]) == 0

    @pytest.mark.parametrize("area", [1e31, 1e32])
    def test_a_huge_area_keeps_its_shells(self, capsys, area):
        """At area 1e31 the probe's values, about 4e-30, fell below an
        absolute floor and ran together into one shell (exit 2, "entries not
        strictly increasing"); the floors follow the lattice's scale, so
        every value times the area is the unit-area sweep's."""
        rows = []
        for a in (1.0, area):
            assert main(["sweep", "--ratio-grid", "1:1.5:0.5", "--area", repr(a)]) == 0
            rows.append(list(csv.reader(capsys.readouterr().out.splitlines()[1:])))
        assert [r[:3] for r in rows[1]] == [r[:3] for r in rows[0]]
        for big, unit in zip(rows[1], rows[0]):
            for col in (3, 4):
                assert float(big[col]) * area == pytest.approx(float(unit[col]), rel=1e-12)

    def test_rows_sorted_by_ratio_then_spin(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["sweep", "--ratio-grid", "0.8:1.2:0.2", "--output", str(out)])
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        keys = [(float(r[0]), r[1]) for r in rows]
        assert keys == sorted(keys)


class TestProoflab:
    def test_prop31_constant_field(self, ico_files, capsys):
        code, doc, _ = run_json(
            capsys,
            ["prooflab", "--task", "prop31", "--mesh", ico_files[2],
             "--psi", "const"],
        )
        assert code == 0
        assert abs(doc["lhs"]) < 1e-12
        assert abs(doc["rhs"]) < 1e-12

    def test_prop31_coordinate_field(self, ico_files, capsys):
        code, doc, _ = run_json(
            capsys,
            ["prooflab", "--task", "prop31", "--mesh", ico_files[2],
             "--psi", "x", "--j", "2"],
        )
        assert code == 0
        assert doc["residual_rel"] < 1e-6

    def test_identities(self, ico_files, capsys):
        code, doc, _ = run_json(
            capsys, ["prooflab", "--task", "identities", "--mesh", ico_files[2]]
        )
        assert code == 0
        assert doc["laplace_h_max_err"] == 0
        assert doc["grad_norm_max_err"] < 1e-12

    def test_refinement_decay(self, ico_files, tmp_path):
        out = tmp_path / "ref.csv"
        code = main(
            ["prooflab", "--task", "refinement", "--mesh-list",
             f"{ico_files[2]},{ico_files[3]}", "--output", str(out)]
        )
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "level,residual"
        residuals = [float(r.split(",")[1]) for r in rows[1:]]
        assert residuals[1] < residuals[0]

    def test_refinement_needs_two_meshes(self, ico_files, capsys):
        code, _, err = run_json(
            capsys,
            ["prooflab", "--task", "refinement", "--mesh-list", ico_files[2]],
        )
        assert code == 2


    @pytest.mark.parametrize("flags, parameter", [
        (["--task", "refinement", "--mesh-list", "{ico2},{ico3}", "--mesh", "{ico3}"],
         "mesh"),
        (["--task", "refinement", "--mesh-list", "{ico2},{ico3}", "--psi", "x"], "psi"),
        (["--task", "identities", "--mesh", "{ico2}", "--j", "3", "--psi", "z"], "j"),
        (["--task", "identities", "--mesh", "{ico2}", "--psi", "z"], "psi"),
        (["--task", "identities", "--mesh", "{ico2}", "--count", "4"], "count"),
        (["--task", "identities", "--mesh", "{ico2}", "--seed", "5", "--tol", "1e-3"], "seed"),
        (["--task", "identities", "--mesh", "{ico2}", "--tol", "1e-3"], "tol"),
        (["--task", "anghel", "--mesh", "{ico2}", "--psi", "y"], "psi"),
        (["--task", "anghel", "--mesh", "{ico2}", "--trunc", "5"], "trunc"),
        (["--task", "prop31", "--mesh", "{ico2}", "--mesh-list", "a,b"], "mesh_list"),
        (["--task", "anghel", "--mesh", "{ico2}", "--config", "{psi_entry}"], "psi"),
        (["--task", "identities", "--mesh", "{ico2}", "--config", "{seed_entry}"], "seed"),
    ])
    def test_flag_the_task_never_reads_rejected(
        self, ico_files, tmp_path, capsys, loaded_meshes, flags, parameter
    ):
        """Each of these printed a report that ignored the flag, and exit 0;
        a refinement given --mesh dropped that mesh."""
        entries = {}
        for key, text in (("psi_entry", '{"psi": "x"}'), ("seed_entry", '{"seed": 0}')):
            entries[key] = tmp_path / (key + ".json")
            entries[key].write_text(text)
        argv = ["prooflab", *(f.format(ico2=ico_files[2], ico3=ico_files[3], **entries)
                              for f in flags)]
        code, doc, err = run_json(capsys, argv)
        task = argv[2]
        assert (code, doc, loaded_meshes) == (2, None, [])
        assert err == {"kind": "usage",
                       "message": "prooflab --task %s reads no --%s"
                       % (task, parameter.replace("_", "-")),
                       "detail": {"parameter": parameter, "task": task}}

    @pytest.mark.parametrize("task", ["prop31", "anghel", "refinement"])
    def test_seed_and_tol_accepted_where_a_solve_reads_them(self, ico_files, capsys, task):
        mesh = ["--mesh-list", "%s,%s" % (ico_files[2], ico_files[3])] \
            if task == "refinement" else ["--mesh", ico_files[2]]
        assert main(["prooflab", "--task", task, *mesh, "--seed", "5", "--tol", "1e-8"]) == 0

    @pytest.mark.parametrize("flags, sizes", [
        (["--task", "anghel", "--mesh", "{ico3}", "--j", "3"], [3]),
        (["--task", "anghel", "--mesh", "{ico3}"], [2]),
        (["--task", "refinement", "--mesh-list", "{ico2},{ico3}", "--j", "4"], [4, 4]),
        (["--task", "anghel", "--mesh", "{ico3}", "--j", "3", "--count", "9"], [9]),
        (["--task", "refinement", "--mesh-list", "{ico2},{ico3}", "--count", "6"], [6, 6]),
    ])
    def test_anghel_solves_j_pairs_unless_count_is_given(
        self, ico_files, capsys, solve_sizes, flags, sizes
    ):
        """The identity reads the one pair j; the solver pads the request."""
        argv = ["prooflab", *(f.format(ico2=ico_files[2], ico3=ico_files[3]) for f in flags)]
        assert main(argv) == 0
        assert solve_sizes == sizes

    def test_anghel_above_the_dense_cap_solves_j_pairs(self, ico5_file, capsys, monkeypatch):
        """10,242 vertices are below 4 (j + 8) at j = 2,600, which chose the
        dense oracle, and it refuses more than 3,000: exit 2."""
        import specgeom.cli as cli_mod

        sizes, dense = [], []

        class Asked(Exception):
            pass

        def spy(ops, k, **kwargs):
            sizes.append(k)
            raise Asked  # the spy stops before the 2,600-pair solve

        monkeypatch.setattr(cli_mod, "solve_smallest", spy)
        monkeypatch.setattr(cli_mod, "dense_eigenbasis", dense.append)
        code, _, err = run_json(
            capsys, ["prooflab", "--task", "anghel", "--mesh", ico5_file, "--j", "2600"])
        assert (code, err["detail"], sizes, dense) == (4, {"exception": "Asked"}, [2600], [])

    @pytest.mark.parametrize("flags, size", [
        ([], 200),
        (["--trunc", "5"], 5),
        (["--trunc", "642"], 642),
        (["--j", "300"], 300),
        (["--trunc", "700"], 642),
        (["--j", "700"], 642),
    ])
    def test_prop31_dense_basis_holds_the_pairs_it_reads(
        self, ico_files, capsys, monkeypatch, flags, size
    ):
        """prop31 asks the dense oracle for pair j and the first --trunc
        pairs (default 200), at most the 642 vertices of an L3 icosphere,
        and prints what the full basis prints, the range errors included."""
        import specgeom.cli as cli_mod
        from specgeom import eigensolve

        asked = []

        def sized(ops, k=None):
            asked.append(k)
            return eigensolve.dense_eigenbasis(ops, k)

        argv = ["prooflab", "--task", "prop31", "--mesh", ico_files[3]] + flags
        monkeypatch.setattr(cli_mod, "dense_eigenbasis", sized)
        code = main(argv)
        printed = capsys.readouterr()
        monkeypatch.setattr(cli_mod, "dense_eigenbasis",
                            lambda ops, k=None: eigensolve.dense_eigenbasis(ops))
        assert main(argv) == code
        assert capsys.readouterr() == printed
        assert asked == [size]

    def test_prop31_above_the_dense_cap_names_count(self, ico5_file, capsys, orderings):
        code, doc, err = run_json(capsys, ["prooflab", "--task", "prop31", "--mesh", ico5_file])
        assert (code, doc, orderings) == (2, None, [])
        assert err == {
            "kind": "usage",
            "message": "prop31 on 10242 vertices needs --count: "
                       "the dense basis is capped at 3000 vertices",
            "detail": {"parameter": "count", "vertices": 10242, "cap": 3000},
        }

    @pytest.mark.parametrize("flags, solved", [
        (["prooflab", "--task", "prop31", "--mesh", "{ico3}"], 0),
        (["prooflab", "--task", "identities", "--mesh", "{ico3}"], 0),
        (["prooflab", "--task", "anghel", "--mesh", "{ico3}"], 1),
        (["prooflab", "--task", "refinement", "--mesh-list", "{ico2},{ico3}"], 2),
        (["prooflab", "--task", "prop31", "--mesh", "{ico3}", "--count", "6"], 1),
        (["spectrum", "--mesh", "{ico3}", "--count", "4"], 1),
        # a sliced solve: several windows, each checked by inertia counts
        (["spectrum", "--mesh", "{ico3}", "--count", "150"], 1),
    ])
    def test_mesh_ordered_only_before_its_first_factorization(
        self, ico_files, capsys, loaded_meshes, orderings, monkeypatch, flags, solved
    ):
        """prop31's dense oracle and the identities factor nothing; a solve
        orders its mesh once, however many factorizations it makes."""
        from specgeom import eigensolve

        counts = []
        real_inertia = eigensolve.inertia

        def inertia(ops, sigma):
            counts.append(sigma)
            return real_inertia(ops, sigma)

        monkeypatch.setattr(eigensolve, "inertia", inertia)
        argv = [f.format(ico2=ico_files[2], ico3=ico_files[3]) for f in flags]
        assert main(argv) == 0
        assert len(loaded_meshes) == max(solved, 1)
        assert [id(m) for m in orderings] == [id(m) for m in loaded_meshes[:solved]]
        assert bool(counts) == ("150" in flags)


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"model": "sphere", "dim": 3, "operator": "dirac", "count": 6}\n'
        )
        code, doc, _ = run_json(capsys, ["spectrum", "--config", str(cfg)])
        assert code == 0
        assert doc["values"] == [2.25] * 4 + [6.25] * 2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "sphere", "dim": 3, "operator": "dirac", "count": 6}\n')
        code, doc, _ = run_json(
            capsys, ["spectrum", "--config", str(cfg), "--count", "3"]
        )
        assert code == 0
        assert len(doc["values"]) == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "sphere", "bogus": 1}\n')
        code, _, err = run_json(capsys, ["spectrum", "--config", str(cfg)])
        assert code == 2
        assert "bogus" in err["message"]

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "--model", "sphere"],
         ["check", "--ineq", "main", "--model", "sphere"]],
    )
    def test_config_value_goes_through_flag_type(self, tmp_path, capsys, argv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"count": "abc"}\n')
        code, _, err = run_json(capsys, argv + ["--config", str(cfg)])
        assert code == 2
        assert err["kind"] == "usage"
        assert err["detail"] == {"key": "count"}

    def test_config_value_checked_against_choices(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "sphere", "operator": "hodge"}\n')
        code, _, err = run_json(capsys, ["spectrum", "--config", str(cfg)])
        assert code == 2
        assert err["detail"] == {"key": "operator"}

    @pytest.mark.parametrize("argv, entry", [
        (["check", "--ineq", "projective", "--model", "sphere", "--sup-term", "1"],
         {"minimal": "false"}),
        (["check", "--ineq", "main", "--model", "sphere"], {"csv": "no"}),
        (["spectrum", "--model", "sphere"], {"include_vectors": 1}),
    ])
    def test_on_off_config_value_must_be_boolean(self, tmp_path, capsys, argv, entry):
        """A string such as "false" is not read as switching the flag on."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        code, doc, err = run_json(capsys, argv + ["--config", str(cfg)])
        assert (code, doc, err["kind"]) == (2, None, "usage")
        assert err["detail"] == {"key": next(iter(entry))}

    def test_on_off_config_value_false_leaves_flag_off(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"csv": false}')
        code, doc, _ = run_json(
            capsys, ["check", "--ineq", "main", "--model", "sphere", "--config", str(cfg)])
        assert code == 0 and doc["all_satisfied"]

    def test_config_values_converted(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "sphere", "count": "3", "radius": 2}\n')
        code, doc, _ = run_json(capsys, ["spectrum", "--config", str(cfg)])
        assert code == 0
        assert doc["values"] == [0, 0.5, 0.5]

    def test_config_must_be_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]\n")
        code, _, err = run_json(capsys, ["spectrum", "--config", str(cfg)])
        assert code == 2

    @pytest.mark.parametrize("argv, entries", [
        (["spectrum", "--model", "torus", "--lattice", "1 0; 0 2", "--spin", "0,1/2",
          "--count", "8"],
         {"model": "torus", "lattice": "1 0; 0 2", "spin": "0,1/2", "count": 8}),
        (["check", "--ineq", "main,reilly1", "--model", "sphere", "--operator",
          "laplace", "--j-range", "1:3", "--radius", "0.5", "--csv"],
         {"ineq": "main,reilly1", "model": "sphere", "operator": "laplace",
          "j-range": "1:3", "radius": 0.5, "csv": True}),
        (["sweep", "--ratio-grid", "0.9:1.1:0.1", "--count", "32", "--area", "12"],
         {"ratio_grid": "0.9:1.1:0.1", "count": "32", "area": 12}),
        (["prooflab", "--task", "prop31", "--mesh", "{mesh}", "--psi", "y", "--j", "2",
          "--trunc", "40"],
         {"task": "prop31", "mesh": "{mesh}", "psi": "y", "j": 2, "trunc": 40}),
    ])
    def test_config_prints_what_its_flags_print(self, ico_files, tmp_path, capsys,
                                                argv, entries):
        argv = [a.format(mesh=ico_files[2]) for a in argv]
        entries = {k: v.format(mesh=ico_files[2]) if isinstance(v, str) else v
                   for k, v in entries.items()}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entries))
        assert main(argv) == 0
        by_flags = capsys.readouterr()
        assert main([argv[0], "--config", str(cfg)]) == 0
        by_config = capsys.readouterr()
        assert (by_config.out, by_config.err) == (by_flags.out, by_flags.err)
        assert by_flags.out

    def test_flag_overrides_typed_config_entry(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"ineq": "main", "model": "sphere", "j_range": "1:3"}')
        code, doc, _ = run_json(
            capsys, ["check", "--config", str(cfg), "--j-range", "2:2"])
        assert code == 0
        assert [r["params"]["j"] for r in doc["reports"]] == [2]

    def test_text_entry_is_a_path_not_a_file_descriptor(self, tmp_path, capsys,
                                                          monkeypatch):
        """{"output": 2} names the file 2; it used to write to stderr and
        then close the caller's file descriptor 2."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text('{"output": 2}')
        code = main(["spectrum", "--model", "sphere", "--count", "3",
                     "--config", "cfg.json"])
        assert code == 0
        assert capsys.readouterr() == ("", "")
        assert json.loads((tmp_path / "2").read_text())["values"] == [0, 2, 2]


class TestExitCodes:
    @pytest.mark.parametrize("argv, kind, detail", [
        (["spectrum", "--mesh", "{mesh}", "--seed", "-1"], "usage", {"seed": -1}),
        (["prooflab", "--task", "prop31", "--mesh", "{mesh}", "--psi", "seed:-1"],
         "usage", {"seed": -1}),
        (["spectrum", "--model", "torus", "--lattice", "1e300 0; 0 1e300"],
         "invalid-model", {"determinant": "inf"}),
        (["spectrum", "--model", "torus", "--lattice", "1e-308 0; 0 1e308"],
         "invalid-model", {"determinant": 1.0}),
        (["sweep", "--ratio-grid", "1e-300:1e-300:1"], "invalid-model", {"limit": 10**8}),
        (["sweep", "--ratio-grid", "1e300:1e300:1"], "invalid-model", {"limit": 10**8}),
    ])
    def test_input_outside_the_domain_exits_2(self, ico_files, capsys, argv, kind,
                                              detail):
        """Each of these raised a numpy error (exit 1 with a traceback)."""
        argv = [a.format(mesh=ico_files[2]) for a in argv]
        code, doc, err = run_json(capsys, argv)
        assert (code, doc, err["kind"], err["detail"]) == (2, None, kind, detail)

    def test_dual_box_past_the_limit_rejected_before_allocation(
        self, capsys, monkeypatch
    ):
        """An 8-dimensional unit lattice at --count 100000 asked numpy for
        52 GiB; the same check, with a small limit, on a small lattice."""
        import specgeom.models as models_mod

        monkeypatch.setattr(models_mod, "MAX_DUAL_BOX", 1000)
        code, doc, err = run_json(
            capsys, ["spectrum", "--model", "clifford-torus", "--count", "256"])
        assert (code, doc, err["kind"]) == (2, None, "invalid-model")
        assert err["detail"] == {"limit": 1000}

    def test_shared_dual_box_at_the_limit(self, capsys, monkeypatch):
        """The probe enumerates its four spin structures in one box, which
        covers every shift's bounds and is at most one row per axis wider
        than the box of the longest shift alone.  A limit one point below
        its size rejects it before the grid is allocated; its size fits."""
        import specgeom.models as models_mod

        sides, real_indices = [], np.indices

        def spy(dims, *args, **kwargs):
            sides.append(tuple(dims))
            return real_indices(dims, *args, **kwargs)

        monkeypatch.setattr(np, "indices", spy)
        argv = ["check", "--ineq", "conjecture", "--lattice", "1 0.3; 0 1.2"]
        assert run_json(capsys, argv)[0] == 0
        [shared] = sides
        lat = models_mod.Lattice(np.array([[1.0, 0.3], [0.0, 1.2]]))
        shifts = [s.shift for s in models_mod.all_spin_structures(2)]
        longest = max(shifts, key=lambda s: np.linalg.norm(lat.dual_basis @ s))
        models_mod.torus_dirac_lowest(lat.stack, [models_mod.SpinStructure(longest)])
        assert all(0 <= a - b <= 1 for a, b in zip(shared, sides[1]))

        size = math.prod(shared)
        sides.clear()
        monkeypatch.setattr(models_mod, "MAX_DUAL_BOX", size - 1)
        code, doc, err = run_json(capsys, argv)
        assert (code, doc, err["kind"], sides) == (2, None, "invalid-model", [])
        assert err["detail"] == {"limit": size - 1}
        monkeypatch.setattr(models_mod, "MAX_DUAL_BOX", size)
        assert run_json(capsys, argv)[0] == 0
        assert sides == [shared]

    @pytest.mark.parametrize("exc", [RuntimeError("boom"), MemoryError()])
    def test_uncaught_exception_exits_4(self, capsys, monkeypatch, exc):
        """A defect exits 4 with one JSON object, never 1 like a failed check."""
        import specgeom.cli as cli_mod

        def handler(cfg):
            raise exc

        monkeypatch.setitem(cli_mod.HANDLERS, "spectrum", handler)
        code, doc, err = run_json(capsys, ["spectrum", "--model", "sphere"])
        name = type(exc).__name__
        assert (code, doc) == (4, None)
        assert err == {"kind": "internal", "message": str(exc) or name,
                       "detail": {"exception": name}}


class TestInputBounds:
    """Flag values outside their domain exit 2 at parse time, from argv and
    from a config file alike, before any mesh is loaded or solved."""

    @pytest.mark.parametrize("flag", ["h-sq", "kappa", "s0", "radius"])
    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_parameter_flags_must_be_finite(self, capsys, flag, text):
        code, doc, err = run_json(
            capsys, ["check", "--ineq", "main", "--model", "sphere", f"--{flag}={text}"])
        assert (code, doc) == (2, None)
        assert err == {"kind": "usage", "detail": {},
                       "message": f"argument --{flag}: invalid float value: '{text}'"}

    @pytest.mark.parametrize("value", ["-1e-3", "-1E+2", "-.5e1", "-2."])
    def test_negative_exponent_is_a_flag_value(self, capsys, value):
        """argparse's own negative-number pattern has no exponent, so
        "--kappa -1e-3" once exited 2 with "expected one argument"; as its
        own argument the value reads as it does after "=" ."""
        base = ["check", "--ineq", "main", "--model", "sphere", "--dim", "2"]
        outs = [run_json(capsys, base + flag) for flag in (["--kappa", value],
                                                            ["--kappa=" + value])]
        assert outs[0] == outs[1] and outs[0][0] == 0
        assert outs[0][1]["reports"][0]["terms"]["r_term"] == 4.0 * float(value)

    def test_negative_exponent_area_is_out_of_range(self, capsys):
        code, doc, err = run_json(capsys, ["sweep", "--ratio-grid", "1:1:1", "--area", "-1e-3"])
        assert (code, doc) == (2, None)
        assert err == {"kind": "usage", "detail": {"area": -0.001},
                       "message": "sweep area must be finite and positive, got -0.001"}

    @pytest.mark.parametrize("key", ["h_sq", "radius"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_parameters_must_be_finite(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))  # NaN, Infinity, -Infinity
        code, doc, err = run_json(
            capsys, ["check", "--ineq", "main", "--model", "sphere", "--config", str(cfg)])
        assert (code, doc) == (2, None)
        assert err == {"kind": "usage", "detail": {"key": key},
                       "message": f"config key '{key}': invalid float value {value!r}"}

    @pytest.mark.parametrize("argv, kind, detail", [
        (["check", "--ineq", "main", "--model", "sphere", "--m", "-1"], "usage", {"m": -1}),
        (["check", "--ineq", "main", "--mesh", "{mesh}", "--m", "-1"], "usage", {"m": -1}),
        (["prooflab", "--task", "anghel", "--mesh", "{mesh}", "--j", "0"],
         "index-range", {"index": 0}),
        (["check", "--ineq", "background", "--mesh", "{mesh}", "--gap-k", "0"],
         "usage", {"parameter": "gap_k", "value": 0}),
        (["check", "--ineq", "background", "--mesh", "{mesh}", "--yang-k", "-2"],
         "usage", {"parameter": "yang_k", "value": -2}),
        (["check", "--ineq", "background", "--mesh", "{mesh}", "--lp-j", "0"],
         "index-range", {"index": 0}),
    ])
    def test_index_flags_checked_before_load_and_solve(
        self, ico_files, capsys, loaded_meshes, solve_sizes, argv, kind, detail
    ):
        argv = [a.format(mesh=ico_files[2]) for a in argv]
        code, doc, err = run_json(capsys, argv)
        assert (code, doc, err["kind"], err["detail"]) == (2, None, kind, detail)
        assert (loaded_meshes, solve_sizes) == ([], [])

    @pytest.mark.parametrize("flags, entries", [
        (["--j", "5", "--j-range", "1:2"], None),
        (["--j-range", "1:2"], '{"j": 5}'),
        (["--j", "5"], '{"j_range": "1:2"}'),
        ([], '{"j": 5, "j_range": "1:2"}'),
    ], ids=["flags", "j-entry", "j-range-entry", "entries"])
    @pytest.mark.parametrize("source", [["--model", "sphere"], ["--mesh", "{mesh}"]],
                             ids=["model", "mesh"])
    def test_j_and_j_range_together_rejected(
        self, ico_files, tmp_path, capsys, loaded_meshes, solve_sizes, source, flags, entries
    ):
        """--j 5 --j-range 1:2 printed the reports of j = 1 and 2 alone."""
        argv = ["check", "--ineq", "main", *(f.format(mesh=ico_files[2]) for f in source),
                *flags]
        if entries is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(entries)
            argv += ["--config", str(cfg)]
        code, doc, err = run_json(capsys, argv)
        assert (code, doc, loaded_meshes, solve_sizes) == (2, None, [], [])
        assert err == {"kind": "usage", "message": "pass either --j or --j-range, not both",
                       "detail": {"parameter": "j_range"}}

    @pytest.mark.parametrize("flags, detail", [
        (["--psi", "bogus"], {}),
        (["--psi", "seed:-1"], {"seed": -1}),
        (["--trunc", "0"], {"trunc": 0}),
        (["--config", "{config}"], {}),
    ])
    def test_prooflab_field_and_truncation_checked_before_load_and_solve(
        self, ico_files, tmp_path, capsys, monkeypatch, loaded_meshes, solve_sizes, flags,
        detail
    ):
        """The 642-vertex dense solve used to run before these were read."""
        import specgeom.cli as cli_mod

        dense = []
        monkeypatch.setattr(cli_mod, "dense_eigenbasis", dense.append)
        config = tmp_path / "cfg.json"
        config.write_text('{"psi": "bogus"}')
        argv = ["prooflab", "--task", "prop31", "--mesh", ico_files[3],
                *(f.format(config=config) for f in flags)]
        code, doc, err = run_json(capsys, argv)
        assert (code, doc, err["kind"], err["detail"]) == (2, None, "usage", detail)
        assert (loaded_meshes, solve_sizes, dense) == ([], [], [])

    @pytest.mark.parametrize("argv, parameter", [
        (["check", "--ineq", "main", "--model", "sphere", "--j-range", "1:1000000000000"],
         "j_range"),
        (["check", "--ineq", "main", "--model", "sphere", "--j-range", "1:100001"],
         "j_range"),
        (["spectrum", "--model", "torus", "--lattice", "1 0; 0 1", "--count", "1" + "0" * 400],
         "count"),
        (["spectrum", "--model", "sphere", "--dim", "2", "--operator", "dirac",
          "--count", "100000000"], "count"),
        (["spectrum", "--model", "sphere", "--count", "100001"], "count"),
        (["prooflab", "--task", "identities", "--mesh", "x.off", "--count", "100001"],
         "count"),
        (["sweep", "--ratio-grid", "0.5:0.6:1e-9"], "ratio_grid"),
        (["sweep", "--ratio-grid", "0.5:0.6:1e-320"], "ratio_grid"),
        (["sweep", "--ratio-grid", "1:1:1", "--count", "100001"], "count"),
    ])
    def test_sizes_capped_before_allocation(self, capsys, argv, parameter):
        """Each of these raised MemoryError or OverflowError (exit 4)."""
        code, doc, err = run_json(capsys, argv)
        assert (code, doc, err["kind"]) == (2, None, "usage")
        assert err["detail"] == {"parameter": parameter, "cap": MAX_COUNT}

    @pytest.mark.parametrize("flags, required", [
        (["--ineq", "background", "--gap-k", "10000000"], 10000001),
        (["--ineq", "main", "--j", "1" + "0" * 23], 10**23 + 2),
        (["--ineq", "main", "--j", "1000000000000"], 10**12 + 2),
        (["--ineq", "main", "--j-range", "99999:100000"], 100002),
        (["--ineq", "background", "--yang-k", "100000"], 100001),
        (["--ineq", "background", "--lp-j", "100000"], 100002),
        (["--ineq", "reilly1", "--m", "100000", "--h-sq-integral", "1"], 100002),
    ])
    def test_inferred_size_capped_before_build(self, capsys, source_builds, flags,
                                               required):
        """Uncapped, the first three run for seconds, or run out of memory
        under a 2 GiB address-space limit."""
        code, doc, err = run_json(capsys, ["check", "--model", "sphere", *flags])
        assert (code, doc, err["kind"], source_builds) == (2, None, "usage", [])
        assert err["detail"] == {"parameter": "count", "required": required,
                                 "cap": MAX_COUNT}

    def test_inferred_size_at_the_cap_builds(self, capsys, source_builds):
        code, _, _ = run_json(capsys, ["check", "--ineq", "main", "--model", "sphere",
                                       "--j", str(MAX_COUNT - 2)])
        assert (code, source_builds) == (0, [MAX_COUNT])

    def test_count_cap_applies_to_config_entries(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"count": 100001}')
        code, doc, err = run_json(
            capsys, ["check", "--ineq", "main", "--model", "sphere", "--config", str(cfg)])
        assert (code, doc, err["detail"]) == (2, None, {"parameter": "count", "cap": MAX_COUNT})

    def test_count_at_the_cap_accepted(self, capsys):
        code, doc, _ = run_json(capsys, ["spectrum", "--model", "sphere", "--count",
                                         str(MAX_COUNT)])
        assert code == 0 and len(doc["values"]) == MAX_COUNT

    @pytest.mark.parametrize("argv, kind", [
        (["spectrum", "--model", "sphere", "--count", "0"], "empty-request"),
        (["sweep", "--ratio-grid", "1:1:1", "--count", "-3"], "empty-request"),
        (["check", "--ineq", "main", "--model", "sphere", "--count", "0"], "usage"),
    ])
    def test_zero_and_negative_counts_keep_their_errors(self, capsys, argv, kind):
        code, doc, err = run_json(capsys, argv)
        assert (code, doc, err["kind"]) == (2, None, kind)


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specgeom.cli", "spectrum", "--model",
             "sphere", "--dim", "2", "--operator", "laplace", "--count", "4"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["values"] == [0, 2, 2, 2]

    def test_bad_flag_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "specgeom.cli", "spectrum", "--nope"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    @pytest.fixture
    def obj_with_extras(self, tmp_path):
        """An icosphere OBJ with texture, normal, group and material records."""
        path = tmp_path / "ico.obj"
        write_obj(path, *icosphere(1))
        with open(path, "a") as fh:
            fh.write("vt 0 0\nvn 0 0 1\ng part\nusemtl steel\n")
        return path

    def test_obj_extras_skipped_without_output_on_stderr(self, obj_with_extras):
        """A run in a fresh interpreter, because pytest would capture a warning."""
        proc = subprocess.run(
            [sys.executable, "-m", "specgeom.cli", "spectrum", "--mesh",
             str(obj_with_extras), "--count", "3"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert len(json.loads(proc.stdout)["values"]) == 3

    def test_obj_error_is_one_json_object_on_stderr(self, obj_with_extras):
        proc = subprocess.run(
            [sys.executable, "-m", "specgeom.cli", "spectrum", "--mesh",
             str(obj_with_extras), "--count", "99"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["kind"] == "usage"
