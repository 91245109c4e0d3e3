"""Proof-identity residual checks on small meshes with full dense bases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgeom.eigensolve import dense_eigenbasis, solve_smallest
from specgeom.errors import IndexRangeError
from specgeom.mesh import assemble_operators, mesh_from_arrays
from specgeom.meshgen import random_sphere
from specgeom.prooflab import (
    coordinate_identities,
    expansion_coefficients,
    verify_anghel_lemma,
    verify_prop31,
)


@pytest.fixture(scope="module")
def ico2_setup(request):
    ico_mesh = request.getfixturevalue("ico_mesh")
    ico_ops = request.getfixturevalue("ico_ops")
    mesh, ops = ico_mesh(2), ico_ops(2)  # 162 vertices
    return mesh, ops, dense_eigenbasis(ops)


class TestExpansion:
    def test_orthonormality_delta(self, ico2_setup):
        """Psi identically one expands s_j onto itself alone."""
        mesh, ops, basis = ico2_setup
        table = expansion_coefficients(np.ones(mesh.n_vertices), basis, ops, 3)
        expected = np.zeros(table.truncation_K)
        expected[2] = 1.0
        np.testing.assert_allclose(table.coefficients, expected, atol=1e-9)

    def test_coefficients_match_direct_integrals(self, ico2_setup):
        mesh, ops, basis = ico2_setup
        psi = mesh.vertices[:, 0]
        table = expansion_coefficients(psi, basis, ops, 2, trunc=40)
        direct = np.array(
            [
                np.sum(psi * basis.vectors[:, 1] * basis.vectors[:, k] * ops.mass_diag)
                for k in range(40)
            ]
        )
        np.testing.assert_allclose(table.coefficients, direct, atol=1e-14)

    def test_cluster_energies_solver_independent(self, ico2_setup):
        """Individual coefficients inside a degenerate cluster depend on the
        solver's basis choice; the per-cluster energy does not."""
        mesh, ops, basis = ico2_setup
        sparse_basis = solve_smallest(ops, 9, seed=0)
        psi = mesh.vertices[:, 0]
        t_dense = expansion_coefficients(psi, basis, ops, 1, trunc=9)
        t_sparse = expansion_coefficients(psi, sparse_basis, ops, 1, trunc=9)
        for lo, hi in ((0, 1), (1, 4), (4, 9)):  # harmonic shells
            e_dense = np.sum(t_dense.coefficients[lo:hi] ** 2)
            e_sparse = np.sum(t_sparse.coefficients[lo:hi] ** 2)
            assert e_dense == pytest.approx(e_sparse, abs=1e-9)

    def test_bessel_partial_sums(self, ico_mesh, ico_ops):
        """The unexpanded tail shrinks as the truncation grows."""
        mesh, ops = ico_mesh(4), ico_ops(4)
        basis = solve_smallest(ops, 200, seed=0)
        psi = mesh.vertices[:, 0]
        defects = []
        for K in (50, 100, 200):
            table = expansion_coefficients(psi, basis, ops, 2, trunc=K)
            assert table.bessel_defect >= -1e-10
            defects.append(table.bessel_defect)
        assert defects[0] > defects[1] > defects[2]

    def test_index_validation(self, ico2_setup):
        mesh, ops, basis = ico2_setup
        psi = np.ones(mesh.n_vertices)
        with pytest.raises(IndexRangeError):
            expansion_coefficients(psi, basis, ops, 0)
        with pytest.raises(IndexRangeError):
            expansion_coefficients(psi, basis, ops, basis.size + 1)
        with pytest.raises(IndexRangeError):
            expansion_coefficients(psi, basis, ops, 1, trunc=basis.size + 1)


class TestProp31:
    def test_constant_psi_both_sides_vanish(self, ico2_setup):
        mesh, ops, basis = ico2_setup
        report = verify_prop31(ops, basis, np.ones(mesh.n_vertices), 2)
        assert abs(report.lhs) < 1e-12
        assert abs(report.rhs) < 1e-12

    def test_full_basis_identity_coordinate_field(self, ico2_setup):
        """With the complete basis the identity is exact up to roundoff."""
        mesh, ops, basis = ico2_setup
        psi = mesh.vertices[:, 0]
        report = verify_prop31(ops, basis, psi, 2, trunc=basis.size)
        assert report.residual_rel < 1e-6
        assert report.residual_rel < 1e-10  # roundoff, in practice

    def test_eigenvector_as_psi(self, ico2_setup):
        mesh, ops, basis = ico2_setup
        psi = basis.vectors[:, 1]
        report = verify_prop31(ops, basis, psi, 2, trunc=basis.size)
        assert report.residual_rel < 1e-6

    def test_random_psi_and_j_pairs(self, ico2_setup):
        mesh, ops, basis = ico2_setup
        rng = np.random.default_rng(5)
        for _ in range(20):
            psi = rng.standard_normal(mesh.n_vertices)
            j = int(rng.integers(1, 12))
            report = verify_prop31(ops, basis, psi, j, trunc=basis.size)
            assert report.residual_rel < 1e-6
            assert report.terms["bessel_defect"] >= -1e-10

    def test_truncation_tail_decays(self, ico2_setup):
        mesh, ops, basis = ico2_setup
        psi = mesh.vertices[:, 0]
        r30 = verify_prop31(ops, basis, psi, 2, trunc=30)
        r90 = verify_prop31(ops, basis, psi, 2, trunc=90)
        rfull = verify_prop31(ops, basis, psi, 2, trunc=basis.size)
        assert r30.residual_rel > r90.residual_rel > rfull.residual_rel

    def test_report_serialization(self, ico2_setup):
        mesh, ops, basis = ico2_setup
        report = verify_prop31(ops, basis, mesh.vertices[:, 1], 3)
        doc = report.to_json_dict()
        assert doc["check_id"] == "expansion-identity"
        assert doc["j"] == 3
        assert set(doc) >= {"lhs", "rhs", "residual_abs", "residual_rel"}


class TestAnghelLemma:
    def test_constant_eigenvector_closed_loop(self, ico2_setup):
        """At j = 1 the lemma reduces to the mean-curvature identity: both
        sides equal 4 * integral of H^2 s_1^2, matching the direct value."""
        mesh, ops, basis = ico2_setup
        report = verify_anghel_lemma(mesh, ops, basis, 1)
        from specgeom.inequalities import weighted_density_integral
        from specgeom.mesh import mean_curvature_field

        h_sq = mean_curvature_field(mesh, ops)
        direct = 4.0 * weighted_density_integral(
            h_sq, basis.vectors[:, 0], ops.mass_diag
        )
        assert report.rhs == pytest.approx(direct, rel=1e-10)
        assert report.residual_rel < 1e-10

    def test_refinement_decay(self, ico_mesh, ico_ops):
        rels = []
        for level in (2, 3):
            mesh, ops = ico_mesh(level), ico_ops(level)
            basis = solve_smallest(ops, 10, seed=0)
            rels.append(verify_anghel_lemma(mesh, ops, basis, 2).residual_rel)
        assert rels[1] < rels[0]
        assert rels[1] < 0.05

    def test_report_shape(self, ico2_setup):
        mesh, ops, basis = ico2_setup
        doc = verify_anghel_lemma(mesh, ops, basis, 2).to_json_dict()
        assert doc["check_id"] == "coordinate-gradient-identity"

    @settings(deadline=None, max_examples=30)
    @given(st.integers(150, 450), st.integers(0, 2**32 - 1))
    def test_j_pair_solve_matches_dense_on_random_spheres(self, n, seed):
        """On irregular meshes, the sparse solve's values and the Anghel
        residual read from a j-pair solve match the dense oracle's."""
        mesh = mesh_from_arrays(*random_sphere(n, seed))
        ops = assemble_operators(mesh)
        dense = dense_eigenbasis(ops)
        values = solve_smallest(ops, 10, seed=seed).values
        np.testing.assert_allclose(values, dense.values[:10], rtol=1e-10,
                                   atol=1e-10 * dense.values[9])
        for j in (2, 3, 4, 6):
            got = verify_anghel_lemma(mesh, ops, solve_smallest(ops, j, seed=seed), j)
            want = verify_anghel_lemma(mesh, ops, dense, j)
            assert got.residual_rel == pytest.approx(want.residual_rel, rel=1e-9)


class TestCoordinateIdentities:
    def test_exact_identities(self, ico_mesh, ico_ops):
        report = coordinate_identities(ico_mesh(2), ico_ops(2))
        assert report.grad_norm_max_err < 1e-12
        assert report.laplace_h_max_err == 0.0

    def test_cross_term_decays_with_refinement(self, ico_mesh, ico_ops):
        r2 = coordinate_identities(ico_mesh(2), ico_ops(2))
        r3 = coordinate_identities(ico_mesh(3), ico_ops(3))
        assert r3.cross_term_l2 < r2.cross_term_l2

    def test_serialization(self, ico_mesh, ico_ops):
        doc = coordinate_identities(ico_mesh(2), ico_ops(2)).to_json_dict()
        assert set(doc) == {
            "grad_norm_max_err",
            "laplace_h_max_err",
            "cross_term_l2",
            "cross_term_max",
        }
