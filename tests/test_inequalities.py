"""Eigenvalue inequality checks on closed-form spectra and meshes.

Every expected number below is frozen from a hand evaluation of the closed
forms; the equality cases in particular pin the constants of each bound.
"""

import math

import numpy as np
import pytest

from specgeom.eigensolve import solve_smallest
from specgeom.errors import (
    HypothesisViolatedError,
    InconsistentKernelError,
    IndexRangeError,
    NormalizationError,
    UsageError,
)
from specgeom.inequalities import (
    INEQS,
    aggregate_exit,
    conjecture_probe,
    evaluate,
    weighted_density_integral,
)
from specgeom.mesh import assemble_operators, extrinsic_summary
from specgeom.models import (
    Lattice,
    Spectrum,
    SpinStructure,
    all_spin_structures,
    clifford_torus_lattice,
    sphere_dirac_spectrum,
    sphere_laplace_spectrum,
    sphere_volume,
    torus_dirac_spectrum,
    torus_laplace_spectrum,
)

S2_LAPLACE = sphere_laplace_spectrum(2, 1.0, 20)
S2_DIRAC = sphere_dirac_spectrum(2, 1.0, 20)
# the unit 2-sphere's scalar bundle: H^2 = 1, no curvature term
SCALAR_S2 = {"n": 2, "h_sq": 1.0, "kappa": 0.0}


class TestMainTheorem:
    def test_scalar_sphere_equality(self):
        """Unit 2-sphere, scalar spectrum, j = 1: both sides are exactly 4."""
        report = evaluate("main", S2_LAPLACE, j=1, **SCALAR_S2)
        assert report.lhs == 4.0
        assert report.rhs == 4.0
        assert report.margin == 0.0
        assert report.satisfied and report.equality

    def test_scalar_sphere_higher_j(self):
        for j in range(1, 8):
            report = evaluate("main", S2_LAPLACE, j=j, **SCALAR_S2)
            assert report.satisfied, j

    def test_dirac_sphere(self):
        # kappa = S/4 = 1/2 on the unit 2-sphere spinor bundle
        report = evaluate("main", S2_DIRAC, j=1, n=2, h_sq=1.0, kappa=0.5)
        assert report.lhs == 2.0
        assert report.rhs == 8.0
        assert report.satisfied and not report.equality

    def test_term_breakdown(self):
        report = evaluate("main", S2_LAPLACE, j=2, **SCALAR_S2)
        terms = report.term_breakdown
        assert terms["gamma_sum"] == report.lhs
        assert terms["lead_term"] + terms["h_term"] - terms["r_term"] == report.rhs

    def test_insufficient_spectrum_errors(self):
        short = Spectrum("laplace", ((0.0, 1), (2.0, 2)), 1)
        with pytest.raises(IndexRangeError):
            evaluate("main", short, j=2, **SCALAR_S2)

    def test_bad_indices(self):
        with pytest.raises(IndexRangeError):
            evaluate("main", S2_LAPLACE, j=0, **SCALAR_S2)
        with pytest.raises(UsageError):
            evaluate("main", S2_LAPLACE, j=1, n=0, h_sq=1.0, kappa=0.0)

    def test_mesh_route(self, ico_mesh, ico_ops):
        mesh, ops = ico_mesh(3), ico_ops(3)
        basis = solve_smallest(ops, 8, seed=0)
        extr = extrinsic_summary(mesh, ops)
        h_sq = weighted_density_integral(extr.H_sq, basis.vectors[:, 0], ops.mass_diag)
        report = evaluate("main", basis, j=1, n=2, h_sq=h_sq, kappa=0.0)
        assert report.satisfied
        # discrete margin should sit near the smooth equality case
        assert abs(report.margin) < 0.1


class TestEtaShift:
    def test_sphere_equality(self):
        report = evaluate("eta", S2_LAPLACE, j=1, n=2, c_sup=4.0, kappa=0.0)
        assert report.lhs == 4.0
        assert report.rhs == 4.0
        assert report.equality

    def test_margin_matches_main_at_default_constant(self):
        """With c_sup = n^2 H^2 the shifted bound is the main bound."""
        lat = Lattice(2.0 * math.pi * np.eye(2))
        spec = torus_dirac_spectrum(lat, SpinStructure((0.0, 0.5)), 30)
        h_sq = 0.0  # flat torus has H = 0 only as abstract manifold; use
        # the product-immersion value instead to keep the test nontrivial
        h_sq = 0.5
        main = evaluate("main", spec, j=3, n=2, h_sq=h_sq, kappa=0.0)
        eta = evaluate("eta", spec, j=3, n=2, c_sup=4.0 * h_sq, kappa=0.0)
        assert eta.margin == pytest.approx(main.margin, abs=1e-12)


class TestUniversalForms:
    def test_euclidean_form_sphere(self):
        report = evaluate("universal-euclidean", S2_DIRAC, j=1, n=2, c1=4.0, c2=0.5)
        assert report.rhs == 8.0
        assert report.satisfied

    def test_sphere_form_matches_geodesic_case(self):
        """The unit sphere sits totally geodesically in itself: c3 = kappa
        and the sphere form agrees with the explicit integral form."""
        univ = evaluate("universal-sphere", S2_DIRAC, j=1, n=2, c3=0.5)
        integral = evaluate("sphere", S2_DIRAC, j=1, n=2, hbar1_integral=1.0, kappa=0.5)
        assert univ.rhs == integral.rhs == 8.0
        assert univ.lhs == integral.lhs == 2.0

    def test_sphere_form_satisfied_along_j(self):
        for j in range(1, 12):
            assert evaluate("universal-sphere", S2_DIRAC, j=j, n=2, c3=0.5).satisfied


class TestReilly:
    def test_first_form_equality(self):
        report = evaluate(
            "reilly1", S2_LAPLACE, n=2, m=1, h_sq_integral=4.0 * math.pi,
            volume=4.0 * math.pi,
        )
        assert report.lhs == 2.0
        assert report.rhs == 2.0
        assert report.equality
        sub = report.subreports[0]
        assert sub.ineq_id == "first-nonzero-mean-curvature"
        assert sub.lhs == 2.0 and sub.equality

    @pytest.mark.parametrize("radius", [0.5, 1.0, 3.0])
    def test_first_form_radius_invariance(self, radius):
        """Rescaling the sphere keeps the bound sharp: margin stays 0."""
        spec = sphere_laplace_spectrum(2, radius, 20)
        vol = 4.0 * math.pi * radius**2
        h_sq_integral = vol / radius**2
        report = evaluate("reilly1", spec, n=2, m=1, h_sq_integral=h_sq_integral, volume=vol)
        assert report.margin == pytest.approx(0.0, abs=1e-12)
        assert report.equality

    def test_kernel_mismatch(self):
        with pytest.raises(InconsistentKernelError):
            evaluate("reilly1", S2_LAPLACE, n=2, m=0, h_sq_integral=4.0 * math.pi,
                     volume=4.0 * math.pi)

    def test_second_form_clifford_equality(self):
        """Clifford torus in the 3-sphere: mean of the first two nonzero
        eigenvalues equals the (Hbar^2 + 1)-mean exactly."""
        spec = torus_laplace_spectrum(clifford_torus_lattice(), 16)
        vol = 2.0 * math.pi**2
        report = evaluate("reilly2", spec, n=2, m=1, hbar1_integral=1.0, volume=vol)
        assert report.lhs == pytest.approx(2.0, abs=1e-12)
        assert report.rhs == pytest.approx(2.0, abs=1e-12)
        assert report.equality

    def test_third_form_projective_target(self):
        """Dirac spectrum of the 2-sphere of curvature 4 (the complex
        projective line) against the projective-target mean bound."""
        spec = sphere_dirac_spectrum(2, 0.5, 20)
        report = evaluate(
            "reilly3", spec, n=2, m=0, field="C", htilde_sq_integral=0.0,
            volume=sphere_volume(2, 0.5),
        )
        assert report.lhs == pytest.approx(4.0, abs=1e-12)
        assert report.rhs == pytest.approx(8.0, abs=1e-12)
        assert report.satisfied

    def test_volume_validation(self):
        with pytest.raises(UsageError):
            evaluate("reilly1", S2_LAPLACE, n=2, m=1, h_sq_integral=4.0 * math.pi, volume=0.0)


class TestProjectiveGap:
    def test_minimal_form_equality_on_cp1(self):
        """Dirac on the curvature-4 sphere: the minimal projective gap bound
        closes exactly at j = 1."""
        spec = sphere_dirac_spectrum(2, 0.5, 20)
        report = evaluate("projective", spec, j=1, n=2, field="C", minimal=True, s_inf=8.0)
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.equality

    def test_general_form_scalar_cp1(self):
        """Scalar spectrum of the curvature-4 sphere with sup_term = 0
        (minimal, flat function bundle): equality at j = 1."""
        spec = sphere_laplace_spectrum(2, 0.5, 20)
        report = evaluate("projective", spec, j=1, n=2, field="C", sup_term=0.0)
        assert report.lhs == 16.0
        assert report.rhs == 16.0
        assert report.equality

    def test_parameter_requirements(self):
        spec = sphere_laplace_spectrum(2, 0.5, 10)
        for flags, key in (({"minimal": True}, "s_inf"), ({}, "sup_term")):
            with pytest.raises(UsageError) as exc:
                evaluate("projective", spec, j=1, n=2, field="C", **flags)
            assert exc.value.detail == {"parameter": key, "ineq": "projective"}


class TestFlatSpin:
    def test_square_torus(self):
        lat = Lattice(2.0 * math.pi * np.eye(2))
        spec = torus_dirac_spectrum(lat, SpinStructure((0.5, 0.5)), 30)
        # product immersion S^1 x S^1 in R^4 with unit circles: |B|^2 = 2
        report = evaluate("lp-spin", spec, j=1, n=2, b_sq_sup=2.0)
        assert report.lhs == 1.0
        assert report.rhs == pytest.approx(6.0 * 0.5 + 2.0, abs=1e-12)
        assert report.satisfied

    def test_all_spins_satisfied(self):
        lat = clifford_torus_lattice()
        for spin in all_spin_structures(2):
            spec = torus_dirac_spectrum(lat, spin, 40)
            for j in range(1, 6):
                assert evaluate("lp-spin", spec, j=j, n=2, b_sq_sup=4.0).satisfied


class TestIndexForm:
    def test_synthetic_kernel(self):
        spec = Spectrum("dirac_squared", ((0.0, 2), (1.0, 1), (2.0, 1)), 2)
        report = evaluate("index", spec, n=2, m=2, b_sq_sup=5.0)
        assert report.lhs == 3.0
        assert report.rhs == 5.0
        assert report.satisfied

    def test_requires_zero_modes(self):
        with pytest.raises(HypothesisViolatedError):
            evaluate("index", S2_DIRAC, n=2, m=0, b_sq_sup=5.0)

    def test_kernel_count_must_match(self):
        spec = Spectrum("dirac_squared", ((0.0, 2), (1.0, 2)), 2)
        with pytest.raises(InconsistentKernelError):
            evaluate("index", spec, n=2, m=1, b_sq_sup=5.0)


class TestBackgroundBounds:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_scalar_curvature_equality_on_spheres(self, n):
        """First Dirac eigenvalue of the round sphere meets the
        scalar-curvature lower bound exactly, every dimension."""
        spec = sphere_dirac_spectrum(n, 1.0, 8)
        s0 = float(n * (n - 1))
        (report,) = evaluate("background", spec, n=n, s0=s0)
        assert report.ineq_id == "scalar-curvature-lower"
        assert report.lhs == report.rhs
        assert report.margin == 0.0
        assert report.equality

    def test_no_switch_names_every_switch(self):
        with pytest.raises(UsageError) as exc:
            evaluate("background", S2_LAPLACE, n=2)
        assert exc.value.detail == {"keys": [
            "s0", "genus", "gap_k", "b_sq_sup", "h_sq_integral", "htilde_sq_integral",
            "yang_k", "chen_h_sq", "lp_j"]}

    def test_genus_area_equality_on_sphere(self):
        (report,) = evaluate("background", S2_DIRAC, n=2, genus=0.0, area=4.0 * math.pi)
        assert report.ineq_id == "genus-area-lower"
        assert report.lhs == 1.0
        assert report.rhs == pytest.approx(1.0, abs=1e-15)
        assert report.equality

    def test_successive_gap_equality_at_first_index(self):
        (report,) = evaluate("background", S2_LAPLACE, gap_k=1, **SCALAR_S2)
        assert report.ineq_id == "successive-gap"
        assert report.lhs == 2.0 and report.rhs == 2.0
        assert report.equality

    def test_successive_gap_inside_shell(self):
        (report,) = evaluate("background", S2_LAPLACE, gap_k=3, **SCALAR_S2)
        assert report.lhs == 0.0  # indices 3 and 4 share the shell
        assert report.satisfied

    def test_rank_factor_bound(self):
        (report,) = evaluate("background", S2_DIRAC, n=2, b_sq_sup=2.0)
        assert report.ineq_id == "second-form-first-nonzero"
        assert report.lhs == 1.0
        assert report.rhs == 4.0  # rank 2 spinor bundle doubles the bound

    def test_hypersurface_euclidean_equality(self):
        (report,) = evaluate(
            "background", S2_DIRAC, n=2, h_sq_integral=4.0 * math.pi,
            volume=4.0 * math.pi,
        )
        assert report.ineq_id == "hypersurface-euclidean"
        assert report.lhs == 1.0 and report.rhs == pytest.approx(1.0, abs=1e-15)
        assert report.equality

    def test_hypersurface_sphere_equality(self):
        """Equator 2-sphere in the 3-sphere is totally geodesic: the bound
        n^2/4 is met exactly by the first Dirac eigenvalue."""
        (report,) = evaluate(
            "background", S2_DIRAC, n=2, htilde_sq_integral=0.0, volume=4.0 * math.pi
        )
        assert report.ineq_id == "hypersurface-sphere"
        assert report.lhs == 1.0 and report.rhs == 1.0
        assert report.equality

    def test_quadratic_gap_equality_at_first_index(self):
        (report,) = evaluate("background", S2_LAPLACE, yang_k=1, **SCALAR_S2)
        assert report.ineq_id == "quadratic-gap"
        assert report.lhs == 4.0 and report.rhs == 4.0
        assert report.equality

    def test_quadratic_gap_larger_k(self):
        (report,) = evaluate("background", S2_LAPLACE, yang_k=6, **SCALAR_S2)
        assert report.satisfied

    def test_low_order_gap_delegates_to_main(self):
        (report,) = evaluate("background", S2_LAPLACE, n=2, chen_h_sq=1.0, kappa=0.0)
        main = evaluate("main", S2_LAPLACE, j=1, **SCALAR_S2)
        assert report.ineq_id == "low-order-gap"
        assert report.lhs == pytest.approx(main.lhs, abs=1e-12)
        assert report.rhs == pytest.approx(main.rhs, abs=1e-12)

    def test_flat_domain_sum_arithmetic(self):
        spec = Spectrum("laplace", ((1.0, 1), (2.0, 1), (3.0, 1)), 0)
        (report,) = evaluate("background", spec, n=1, lp_j=1)
        assert report.lhs == 2.0
        assert report.rhs == 5.0
        assert report.satisfied

    def test_multiple_bounds_one_call(self):
        reports = evaluate(
            "background", S2_DIRAC, n=2, s0=2.0, genus=0.0, area=4.0 * math.pi
        )
        assert [r.ineq_id for r in reports] == [
            "scalar-curvature-lower",
            "genus-area-lower",
        ]

    def test_no_matching_bound(self):
        with pytest.raises(UsageError):
            evaluate("background", S2_DIRAC, n=2)

    def test_dimension_required(self):
        with pytest.raises(UsageError):
            evaluate("background", S2_DIRAC, s0=2.0)


class TestConjectureProbe:
    def test_clifford_probe(self):
        reports = conjecture_probe(clifford_torus_lattice())
        assert len(reports) == 4
        assert all(r.exploratory for r in reports)
        assert all(r.rhs == pytest.approx(2.0, abs=1e-13) for r in reports)
        by_spin = {r.params["spin"]: r for r in reports}
        # trivial structure: first two nonzero values are exactly 2
        assert by_spin["0,0"].lhs == pytest.approx(2.0, abs=1e-12)
        # the balanced structure sits strictly below the conjectured bound
        assert by_spin["1/2,1/2"].lhs == pytest.approx(1.0, abs=1e-12)
        assert not by_spin["1/2,1/2"].satisfied

    def test_probe_never_blocks_aggregation(self):
        reports = conjecture_probe(clifford_torus_lattice())
        assert aggregate_exit(reports) is True

    def test_probe_requires_2d(self):
        with pytest.raises(UsageError):
            conjecture_probe(Lattice(np.eye(3) * 2.0 * math.pi))

    def test_probe_area_override(self):
        reports = conjecture_probe(clifford_torus_lattice(), area=math.pi**2)
        assert all(r.rhs == pytest.approx(4.0, abs=1e-13) for r in reports)


class TestViewAndHelpers:
    def test_view_rejects_other_types(self):
        """Every evaluator family rejects input that is not a spectrum."""
        for ineq_id in INEQS:
            if INEQS[ineq_id].reads is not None:
                with pytest.raises(UsageError) as exc:
                    evaluate(ineq_id, [1.0, 2.0])
                assert "expected a Spectrum" in str(exc.value)

    def test_unknown_id_lists_the_known_ids(self):
        with pytest.raises(UsageError) as exc:
            evaluate("nope", S2_LAPLACE)
        assert str(exc.value) == "unknown inequality id 'nope' (known: %s)" % ", ".join(INEQS)
        assert exc.value.detail == {"ineq": "nope"}

    def test_gamma_sum_validates_before_work(self, monkeypatch):
        """The sum's last index is read first, so a sum past the resolved
        spectrum fails before any partial work."""
        spec = Spectrum("laplace", ((0.0, 1), (1.0, 2)), 1)
        reads = []
        real_gamma = Spectrum.gamma

        def spy(self, j):
            reads.append(j)
            return real_gamma(self, j)

        monkeypatch.setattr(Spectrum, "gamma", spy)
        with pytest.raises(IndexRangeError) as exc:
            evaluate("main", spec, j=1, n=4, h_sq=1.0, kappa=0.0)
        assert reads == [5]
        assert exc.value.detail == {"index": 5, "length": 3}

    def test_weighted_integral_normalization_guard(self, ico_ops):
        ops = ico_ops(2)
        n = ops.mass.shape[0]
        field = np.ones(n)
        bad = np.ones(n)  # squared mass norm is the total area, not 1
        with pytest.raises(NormalizationError):
            weighted_density_integral(field, bad, ops.mass_diag)

    def test_weighted_integral_constant_field(self, ico_ops):
        ops = ico_ops(2)
        mass_diag = ops.mass_diag
        s = 1.0 / math.sqrt(mass_diag.sum()) * np.ones(len(mass_diag))
        value = weighted_density_integral(np.full(len(s), 3.0), s, mass_diag)
        assert value == pytest.approx(3.0, rel=1e-12)

    def test_weighted_integral_shape_guard(self, ico_ops):
        ops = ico_ops(2)
        with pytest.raises(UsageError):
            weighted_density_integral(
                np.ones(3), np.ones(4), ops.mass_diag[:4]
            )

    def test_vertex_fields_match_constants_on_sphere(self, ico_mesh, ico_ops):
        mesh, ops = ico_mesh(3), ico_ops(3)
        basis = solve_smallest(ops, 4, seed=0)
        extr = extrinsic_summary(mesh, ops)
        h_sq = weighted_density_integral(extr.H_sq, basis.vectors[:, 1], ops.mass_diag)
        assert h_sq == pytest.approx(1.0, rel=0.05)

    def test_aggregate_exit_mixed(self):
        sat = evaluate("main", S2_LAPLACE, j=1, **SCALAR_S2)
        unsat = evaluate("lp-spin", S2_LAPLACE, j=1, n=2, b_sq_sup=-10.0)
        exploratory = conjecture_probe(clifford_torus_lattice())[3]
        assert not exploratory.satisfied
        assert aggregate_exit([sat, exploratory]) is True
        assert aggregate_exit([sat, unsat]) is False
