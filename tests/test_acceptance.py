"""Acceptance suite: ten gate criteria, one test and one pass/fail line each.

Each test prints a single summary line with its pinned tolerances and
enforces its wall-clock budget.  These are the release gates; the per-module
suites cover the same ground at finer grain.
"""

import json
import math
import time

import numpy as np
import pytest

from specgeom.cli import main
from specgeom.eigensolve import dense_eigenbasis, solve_smallest
from specgeom.errors import IndexRangeError
from specgeom.inequalities import evaluate, weighted_density_integral
from specgeom.mesh import assemble_operators, extrinsic_summary, mesh_from_arrays
from specgeom.meshgen import ellipsoid, icosphere, write_obj, write_off
from specgeom.models import (
    Lattice,
    all_spin_structures,
    product_torus_extrinsic,
    sphere_dirac_spectrum,
    sphere_laplace_spectrum,
    torus_dirac_spectrum,
)
from specgeom.prooflab import (
    expansion_coefficients,
    verify_anghel_lemma,
    verify_prop31,
)


class Budget:
    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, label):
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.seconds, (
            "%s exceeded its %.0fs budget: %.1fs" % (label, self.seconds, elapsed)
        )
        return elapsed


def report_line(criterion, detail):
    print("PASS %s: %s" % (criterion, detail))


def test_criterion_01_sphere_equality_suite():
    """Round spheres meet the curvature lower bounds exactly, n = 2..6."""
    budget = Budget(1.0)
    worst = 0.0
    for n in range(2, 7):
        spec = sphere_dirac_spectrum(n, 1.0, 8)
        s0 = float(n * (n - 1))
        (rep,) = evaluate("background", spec, n=n, s0=s0)
        worst = max(worst, abs(rep.lhs - rep.rhs))
        assert abs(rep.lhs - rep.rhs) <= 1e-12, n
    s2 = sphere_dirac_spectrum(2, 1.0, 8)
    (genus_rep,) = evaluate("background", s2, n=2, genus=0.0, area=4.0 * math.pi)
    worst = max(worst, abs(genus_rep.lhs - genus_rep.rhs))
    assert abs(genus_rep.lhs - genus_rep.rhs) <= 1e-12
    elapsed = budget.done("criterion 1")
    report_line(
        "criterion-01 sphere-equalities",
        "curvature bound gap <= 1e-12 for n=2..6 and the genus form "
        "(worst %.2e, %.2fs < 1s)" % (worst, elapsed),
    )


def test_criterion_02_main_theorem_scalar_equality():
    """Unit 2-sphere scalar spectrum closes the main bound at j = 1."""
    budget = Budget(1.0)
    spec = sphere_laplace_spectrum(2, 1.0, 10)
    rep = evaluate("main", spec, j=1, n=2, h_sq=1.0, kappa=0.0)
    assert rep.lhs == pytest.approx(4.0, abs=1e-12)
    assert rep.rhs == pytest.approx(4.0, abs=1e-12)
    assert abs(rep.margin) <= 1e-12
    elapsed = budget.done("criterion 2")
    report_line(
        "criterion-02 main-scalar-equality",
        "lhs = rhs = 4 with |margin| <= 1e-12 (margin %.2e, %.2fs < 1s)"
        % (rep.margin, elapsed),
    )


def test_criterion_03_reilly_equality_and_rescaling():
    """First mean-curvature bound is sharp on round spheres of any radius."""
    budget = Budget(1.0)
    rep = evaluate(
        "reilly1", sphere_laplace_spectrum(2, 1.0, 10), n=2, m=1,
        h_sq_integral=4.0 * math.pi, volume=4.0 * math.pi,
    )
    assert rep.lhs == pytest.approx(2.0, abs=1e-12)
    assert rep.rhs == pytest.approx(2.0, abs=1e-12)
    worst = abs(rep.margin)
    for radius in (0.5, 2.0, 7.5):
        vol = 4.0 * math.pi * radius**2
        scaled = evaluate(
            "reilly1", sphere_laplace_spectrum(2, radius, 10), n=2, m=1,
            h_sq_integral=vol / radius**2, volume=vol,
        )
        worst = max(worst, abs(scaled.margin))
        assert abs(scaled.margin) <= 1e-12, radius
    elapsed = budget.done("criterion 3")
    report_line(
        "criterion-03 reilly-equality",
        "both sides 2.0 at r=1; |margin| <= 1e-12 under rescaling "
        "(worst %.2e, %.2fs < 1s)" % (worst, elapsed),
    )


def test_criterion_04_mesh_convergence():
    """Icosphere spectra and Willmore energy converge monotonically."""
    budget = Budget(60.0)
    value_bands = {3: 0.05, 4: 0.02, 5: 0.01}
    willmore_bands = {3: 0.05, 4: 0.03, 5: 0.02}
    exact = sphere_laplace_spectrum(2, 1.0, 13).values(13)[1:]
    value_errs, willmore_errs = [], []
    for level in (3, 4, 5):
        verts, faces = icosphere(level)
        mesh = mesh_from_arrays(verts, faces)
        ops = assemble_operators(mesh)
        basis = solve_smallest(ops, 13, seed=0)
        rel = np.max(np.abs(basis.values[1:13] - exact) / exact)
        wil = abs(extrinsic_summary(mesh, ops).willmore - 4.0 * math.pi) / (
            4.0 * math.pi
        )
        assert rel < value_bands[level], (level, rel)
        assert wil < willmore_bands[level], (level, wil)
        value_errs.append(rel)
        willmore_errs.append(wil)
    assert value_errs[0] > value_errs[1] > value_errs[2]
    assert willmore_errs[0] > willmore_errs[1] > willmore_errs[2]
    elapsed = budget.done("criterion 4")
    report_line(
        "criterion-04 mesh-convergence",
        "eigenvalue errors %.4f/%.4f/%.4f within 5%%/2%%/1%%, willmore "
        "%.4f/%.4f/%.4f within 5%%/3%%/2%%, both monotone (%.1fs < 60s)"
        % (*value_errs, *willmore_errs, elapsed),
    )


def test_criterion_05_mesh_inequality_suite():
    """Ellipsoid mesh satisfies the main and mean-curvature bounds with
    positive margins; short spectra error out instead of truncating."""
    budget = Budget(60.0)
    verts, faces = ellipsoid(1.0, 1.0, 2.0, 5)
    mesh = mesh_from_arrays(verts, faces)
    ops = assemble_operators(mesh)
    basis = solve_smallest(ops, 13, seed=0)
    extr = extrinsic_summary(mesh, ops)
    margins = []
    for j in range(1, 11):
        h_sq = weighted_density_integral(extr.H_sq, basis.vectors[:, j - 1], ops.mass_diag)
        rep = evaluate("main", basis, j=j, n=2, h_sq=h_sq, kappa=0.0)
        assert rep.satisfied and rep.margin > 0.0, j
        margins.append(rep.margin)
    reilly = evaluate(
        "reilly1", basis, n=2, m=1, h_sq_integral=extr.willmore, volume=mesh.total_area
    )
    assert reilly.satisfied and reilly.margin > 0.0
    with pytest.raises(IndexRangeError):
        # needs the 14th eigenvalue
        evaluate("main", basis, j=12, n=2, h_sq=h_sq, kappa=0.0)
    elapsed = budget.done("criterion 5")
    report_line(
        "criterion-05 ellipsoid-suite",
        "main j=1..10 margins in [%.3g, %.3g], mean-curvature margin %.3g, "
        "all > 0; short spectrum raises (%.1fs < 60s)"
        % (min(margins), max(margins), reilly.margin, elapsed),
    )


def test_criterion_06_dirac_model_suite():
    """Dirac bounds hold on round spheres and every flat-torus spin
    structure for j up to 50."""
    budget = Budget(30.0)
    checked = 0
    js = list(range(1, 51))

    for n in (2, 3):
        spec = sphere_dirac_spectrum(n, 1.0, 60)
        kappa = n * (n - 1) / 4.0
        for j in js:
            for ineq_id, params in (
                ("main", {"h_sq": 1.0, "kappa": kappa}),
                ("universal-euclidean", {"c1": float(n**2), "c2": kappa}),
                ("universal-sphere", {"c3": kappa}),
                ("sphere", {"hbar1_integral": 1.0, "kappa": kappa}),
                ("lp-spin", {"b_sq_sup": float(n)}),
            ):
                assert evaluate(ineq_id, spec, j=j, n=n, **params).satisfied
                checked += 1

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for r1, r2 in ((1.0, 1.0), (1.0, 2.0), (inv_sqrt2, inv_sqrt2)):
        lat, extr = product_torus_extrinsic(r1, r2)
        scale = math.hypot(r1, r2)
        unit_lat, unit_extr = product_torus_extrinsic(r1 / scale, r2 / scale)
        for spin in all_spin_structures(2):
            spec = torus_dirac_spectrum(lat, spin, 60)
            unit_spec = torus_dirac_spectrum(unit_lat, spin, 60)
            for j in js:
                # sphere forms apply to the copy normalized into the unit
                # 3-sphere, where H^2 = Hbar^2 + 1 exactly
                for ineq_id, s, params in (
                    ("main", spec, {"h_sq": extr.H_sq, "kappa": 0.0}),
                    ("universal-euclidean", spec, {"c1": 4.0 * extr.H_sq, "c2": 0.0}),
                    ("lp-spin", spec, {"b_sq_sup": extr.B_sq}),
                    ("universal-sphere", unit_spec, {"c3": 0.0}),
                    ("sphere", unit_spec, {"hbar1_integral": unit_extr.H_sq, "kappa": 0.0}),
                ):
                    assert evaluate(ineq_id, s, j=j, n=2, **params).satisfied
                    checked += 1

    elapsed = budget.done("criterion 6")
    report_line(
        "criterion-06 dirac-model-suite",
        "%d checks satisfied on S^2, S^3, and 3 tori x 4 spin structures, "
        "j <= 50 (%.1fs < 30s)" % (checked, elapsed),
    )


def test_criterion_07_prooflab_oracle_suite():
    """Expansion identity and Bessel bounds on a 162-vertex mesh with its
    full dense basis."""
    budget = Budget(30.0)
    verts, faces = icosphere(2)
    mesh = mesh_from_arrays(verts, faces)
    ops = assemble_operators(mesh)
    basis = dense_eigenbasis(ops)

    rng = np.random.default_rng(42)
    worst_resid = 0.0
    for _ in range(20):
        psi = rng.standard_normal(mesh.n_vertices)
        j = int(rng.integers(1, 15))
        rep = verify_prop31(mesh, ops, basis, psi, j, trunc=basis.size)
        worst_resid = max(worst_resid, rep.residual_rel)
        assert rep.residual_rel <= 1e-6, (j, rep.residual_rel)
        table = expansion_coefficients(psi, basis, ops, j, trunc=basis.size)
        partial = np.cumsum(table.coefficients**2)
        assert np.all(np.diff(partial) >= -1e-15)
        assert partial[-1] <= table.psi_norm_sq + 1e-10

    elapsed = budget.done("criterion 7")
    report_line(
        "criterion-07 prooflab-oracles",
        "expansion identity residual <= 1e-6 (worst %.2e) and Bessel bounds "
        "over 20 seeded pairs (%.1fs < 30s)" % (worst_resid, elapsed),
    )


def test_criterion_08_anghel_refinement():
    """Coordinate-gradient identity residual decays across refinement and
    lands under 5 percent."""
    budget = Budget(60.0)
    residuals = []
    for level in (3, 4, 5):
        verts, faces = icosphere(level)
        mesh = mesh_from_arrays(verts, faces)
        ops = assemble_operators(mesh)
        basis = solve_smallest(ops, 10, seed=0)
        residuals.append(verify_anghel_lemma(mesh, ops, basis, 2).residual_rel)
    assert residuals[0] > residuals[1] > residuals[2]
    assert residuals[2] <= 0.05
    elapsed = budget.done("criterion 8")
    report_line(
        "criterion-08 anghel-refinement",
        "residuals %.4f > %.4f > %.4f, final <= 5%% (%.1fs < 60s)"
        % (*residuals, elapsed),
    )


def test_criterion_09_conjecture_probe_reproducibility(tmp_path, capsys):
    """The exploratory probe and the ratio sweep are byte-stable and never
    affect exit codes."""
    budget = Budget(10.0)
    probe_argv = ["check", "--ineq", "conjecture", "--lattice", "clifford"]
    outputs = []
    for _ in range(2):
        assert main(probe_argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    assert any(not r["satisfied"] for r in doc["reports"])  # still exit 0

    sweep_files = [tmp_path / "sweep1.csv", tmp_path / "sweep2.csv"]
    for path in sweep_files:
        code = main(
            ["sweep", "--ratio-grid", "0.5:2.0:0.1", "--output", str(path)]
        )
        assert code == 0
    blob = sweep_files[0].read_bytes()
    assert blob == sweep_files[1].read_bytes()
    assert len(blob.decode().strip().split("\n")) == 65
    elapsed = budget.done("criterion 9")
    report_line(
        "criterion-09 probe-reproducibility",
        "probe JSON and 64-row sweep CSV byte-identical across reruns, "
        "exit 0 with failing exploratory rows (%.1fs < 10s)" % elapsed,
    )


def mutate_mesh_text(text, rng):
    """One seeded structural corruption of a mesh file's text."""
    lines = text.split("\n")
    op = rng.integers(0, 8)
    if op == 0 and len(lines) > 3:
        cut = int(rng.integers(1, len(lines)))
        lines = lines[:cut]
    elif op == 1:
        idx = int(rng.integers(0, len(lines)))
        lines.insert(idx, lines[idx])
    elif op == 2:
        idx = int(rng.integers(1, len(lines)))
        lines[idx] = lines[idx] + " 999999"
    elif op == 3:
        idx = int(rng.integers(1, len(lines)))
        lines[idx] = lines[idx].replace(" ", " nan ", 1)
    elif op == 4:
        idx = int(rng.integers(0, len(lines)))
        lines[idx] = ""
    elif op == 5:
        lines[0] = "JUNKHEADER"
    elif op == 6:
        idx = int(rng.integers(1, len(lines)))
        tokens = lines[idx].split()
        if tokens:
            tokens[int(rng.integers(0, len(tokens)))] = "-7"
            lines[idx] = " ".join(tokens)
    else:
        idx = int(rng.integers(1, len(lines)))
        lines[idx] = lines[idx][: max(1, len(lines[idx]) // 2)]
    return "\n".join(lines)


def test_criterion_10_determinism_and_robustness(tmp_path, capsys):
    """CLI artifacts are bit-stable under a fixed seed, and a 50-file fuzz
    corpus of corrupted meshes never escapes the structured-error contract."""
    budget = Budget(120.0)
    verts, faces = icosphere(2)
    off_path = tmp_path / "base.off"
    obj_path = tmp_path / "base.obj"
    write_off(off_path, verts, faces)
    write_obj(obj_path, verts, faces)

    rerun_argvs = [
        ["spectrum", "--mesh", str(off_path), "--count", "9", "--seed", "3"],
        ["check", "--ineq", "reilly1", "--mesh", str(off_path)],
        ["prooflab", "--task", "prop31", "--mesh", str(off_path), "--psi", "x"],
        ["spectrum", "--model", "sphere", "--dim", "2", "--operator",
         "dirac", "--count", "12"],
    ]
    for argv in rerun_argvs:
        outs = []
        for _ in range(2):
            assert main(argv) in (0, 1)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv

    rng = np.random.default_rng(2024)
    exit_counts = {0: 0, 2: 0}
    for i in range(50):
        src, suffix = (off_path, ".off") if i % 2 == 0 else (obj_path, ".obj")
        mutated = mutate_mesh_text(src.read_text(), rng)
        path = tmp_path / ("fuzz%02d%s" % (i, suffix))
        path.write_text(mutated)
        code = main(["spectrum", "--mesh", str(path), "--count", "4"])
        captured = capsys.readouterr()
        assert code in (0, 2), (i, code)
        if code == 2:
            err = json.loads(captured.err)
            assert set(err) == {"kind", "message", "detail"}
        exit_counts[code] += 1
    assert exit_counts[2] > 0  # the corpus does exercise the error paths
    elapsed = budget.done("criterion 10")
    report_line(
        "criterion-10 determinism-robustness",
        "4 artifact reruns byte-identical; fuzz corpus of 50 mutated meshes "
        "-> %d clean / %d structured errors, no crashes (%.1fs < 120s)"
        % (exit_counts[0], exit_counts[2], elapsed),
    )
