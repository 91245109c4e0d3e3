"""Mesh loading, validation, operator assembly, and curvature summaries."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specgeom.errors import (
    ClosedSurfaceRequiredError,
    MeshParseError,
    MeshValidationError,
)
from specgeom.mesh import (
    angle_defects,
    assemble_operators,
    extrinsic_summary,
    face_areas,
    face_gradients,
    face_normals,
    load_mesh,
    mean_curvature_field,
    mesh_from_arrays,
    row_norms,
    vertex_average_from_faces,
)
from specgeom.meshgen import icosphere, write_obj, write_off

# regular tetrahedron on unit-sphere vertices; edge length sqrt(8/3)
TET_VERTS = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
) / math.sqrt(3.0)
TET_FACES = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
TET_FACE_AREA = 0.5 * (8.0 / 3.0) * math.sin(math.pi / 3.0)


class TestValidation:
    def test_tetrahedron_accepted(self):
        mesh = mesh_from_arrays(TET_VERTS, TET_FACES)
        assert mesh.n_vertices == 4 and mesh.n_faces == 4
        assert mesh.total_area == pytest.approx(4.0 * TET_FACE_AREA, rel=1e-14)
        np.testing.assert_allclose(
            mesh.vertex_area, np.full(4, mesh.total_area / 4.0), rtol=1e-14
        )

    def test_face_areas_by_hand(self):
        areas = face_areas(TET_VERTS, TET_FACES)
        np.testing.assert_allclose(areas, TET_FACE_AREA, rtol=1e-14)

    def test_boundary_rejected(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 0, 0]], float)
        faces = np.array([[0, 1, 2], [1, 3, 2], [1, 4, 3], [0, 2, 3]])
        with pytest.raises(ClosedSurfaceRequiredError) as exc:
            mesh_from_arrays(verts, faces)
        # (0,1), (1,4), (3,4) and (0,3) each lie in one face; the first is reported
        assert exc.value.detail["edge"] == (0, 1)

    def test_overshared_edge_rejected(self):
        verts = np.vstack([TET_VERTS, [[0.0, 0.0, 2.0]]])
        faces = np.vstack([TET_FACES, [[0, 2, 4]]])  # edge (0,2) now in 3 faces
        with pytest.raises(MeshValidationError, match="shared by 3 faces") as exc:
            mesh_from_arrays(verts, faces)
        assert exc.value.detail["edge"] == (0, 2)
        assert exc.value.detail["face_count"] == 3

    def test_lexicographically_first_bad_edge_reported(self):
        """Edges (2,3) and (0,1) are both over-shared; (2,3) comes first in
        face order, (0,1) in lexicographic order, which decides."""
        verts = np.vstack([TET_VERTS, [[0.0, 0.0, 2.0], [0.0, 2.0, 0.0]]])
        faces = np.vstack([TET_FACES, [[2, 3, 4], [0, 1, 5]]])
        with pytest.raises(MeshValidationError, match="edge \\(0, 1\\)") as exc:
            mesh_from_arrays(verts, faces)
        assert exc.value.detail["edge"] == (0, 1)

    def test_bad_index_rejected(self):
        faces = TET_FACES.copy()
        faces[2, 1] = 9
        with pytest.raises(MeshValidationError, match="outside"):
            mesh_from_arrays(TET_VERTS, faces)

    def test_orphan_vertex_rejected(self):
        verts = np.vstack([TET_VERTS, [[3.0, 3.0, 3.0]]])
        with pytest.raises(MeshValidationError, match="not referenced"):
            mesh_from_arrays(verts, TET_FACES)

    def test_degenerate_face_rejected(self):
        verts = TET_VERTS.copy()
        verts[3] = verts[0]  # collapses every face touching vertex 3
        with pytest.raises(MeshValidationError, match="degenerate"):
            mesh_from_arrays(verts, TET_FACES)

    def test_overflowing_coordinates_named_as_overflow(self):
        """Face areas that overflow are not called degenerate."""
        verts, faces = icosphere(1)
        with pytest.raises(MeshValidationError) as exc:
            mesh_from_arrays(verts * 1e200, faces)
        assert exc.value.kind == "mesh-validation"
        assert str(exc.value) == "face 1 area overflows (area inf); coordinates are too large"
        assert exc.value.detail == {"face": 1, "area": math.inf}

    def test_coordinates_past_the_area_range_overflow(self):
        verts, faces = icosphere(1)
        with pytest.raises(MeshValidationError, match="area overflows"):
            mesh_from_arrays(verts * 1e160, faces)

    @pytest.mark.parametrize("scale", [1e154, 3e154])
    def test_extent_past_the_area_range_named_as_overflow(self, scale):
        """Every face area is finite here, but the total area and the squared
        bounding-box diagonal of the degeneracy threshold are not."""
        verts, faces = icosphere(2)
        with pytest.raises(MeshValidationError, match="overflows") as exc:
            mesh_from_arrays(verts * scale, faces)
        assert "degenerate" not in str(exc.value)
        assert exc.value.detail["total_area"] == math.inf
        assert mesh_from_arrays(verts * 1e150, faces).total_area < math.inf

    def test_inconsistent_orientation_rejected(self):
        faces = TET_FACES.copy()
        faces[1] = faces[1][::-1]
        with pytest.raises(MeshValidationError, match="orientation") as exc:
            mesh_from_arrays(TET_VERTS, faces)
        # (1,0), (0,3) and (3,1) are each traversed twice
        assert exc.value.detail["edge"] == (0, 3)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["flip", "dup", "del", "dup-flipped"]),
                      st.integers(min_value=0, max_value=79)),
            min_size=1,
            max_size=3,
        )
    )
    def test_edge_errors_match_sorted_reference(self, edits):
        """Corrupted icospheres report the same error and edge as a plain
        Python count over sorted edge tuples."""
        verts, faces = icosphere(1)  # 80 faces
        for op, i in edits:
            i %= len(faces)
            if op == "flip":
                faces[i] = faces[i][::-1]
            elif op == "dup":
                faces = np.vstack([faces, faces[i]])
            elif op == "del":
                faces = np.delete(faces, i, axis=0)
            else:
                faces = np.vstack([faces, faces[i][::-1]])
        expected = reference_edge_error(faces)
        if expected is None:
            mesh_from_arrays(verts, faces)
            return
        with pytest.raises(MeshValidationError) as exc:
            mesh_from_arrays(verts, faces)
        assert (type(exc.value), exc.value.detail["edge"]) == expected


class TestComponents:
    """``n_components`` counts the components of the face graph."""

    @staticmethod
    def spheres(k):
        verts, faces = icosphere(1)
        return mesh_from_arrays(
            np.vstack([verts + [5.0 * i, 0.0, 0.0] for i in range(k)]),
            np.vstack([faces + i * len(verts) for i in range(k)]),
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_disjoint_spheres(self, k):
        assert self.spheres(k).n_components == k

    def test_bowtie_is_one_component(self):
        """Two tetrahedra that share vertex 0: a function constant on each
        must agree there, so the kernel is one-dimensional."""
        verts = np.vstack([TET_VERTS, 2.0 * TET_VERTS[0] - TET_VERTS[1:]])
        mirrored = np.where(TET_FACES == 0, 0, TET_FACES + 3)[:, ::-1]
        mesh = mesh_from_arrays(verts, np.vstack([TET_FACES, mirrored]))
        assert mesh.n_vertices == 7
        assert mesh.n_components == 1


def reference_edge_error(faces):
    """(error type, edge) that validation must report, or None."""
    directed = [(f[a], f[b]) for f in faces.tolist()
                for a, b in ((0, 1), (1, 2), (2, 0))]
    undirected = sorted(Counter(tuple(sorted(e)) for e in directed).items())
    for edge, count in undirected:
        if count > 2:
            return MeshValidationError, edge
    for edge, count in undirected:
        if count == 1:
            return ClosedSurfaceRequiredError, edge
    for edge, count in sorted(Counter(directed).items()):
        if count > 1:
            return MeshValidationError, edge
    return None


class TestLoaders:
    def test_off_round_trip(self, tmp_path):
        path = tmp_path / "tet.off"
        write_off(path, TET_VERTS, TET_FACES)
        mesh = load_mesh(path)
        np.testing.assert_allclose(mesh.vertices, TET_VERTS, atol=1e-16)
        np.testing.assert_array_equal(mesh.faces, TET_FACES)

    def test_obj_round_trip(self, tmp_path):
        path = tmp_path / "tet.obj"
        write_obj(path, TET_VERTS, TET_FACES)
        mesh = load_mesh(path)
        np.testing.assert_allclose(mesh.vertices, TET_VERTS, atol=1e-16)
        np.testing.assert_array_equal(mesh.faces, TET_FACES)

    def test_format_inference_failure(self, tmp_path):
        path = tmp_path / "mesh.dat"
        path.write_text("junk\n")
        with pytest.raises(MeshParseError):
            load_mesh(path)

    def test_truncated_off_reports_line(self, tmp_path):
        path = tmp_path / "cut.off"
        path.write_text("OFF\n4 4 0\n0 0 0\n1 0 0\n")
        with pytest.raises(MeshParseError) as exc:
            load_mesh(path)
        assert exc.value.detail.get("line") is not None

    def test_off_bad_header(self, tmp_path):
        path = tmp_path / "hdr.off"
        path.write_text("NOTOFF\n4 4 0\n")
        with pytest.raises(MeshParseError):
            load_mesh(path)

    def test_obj_bad_face_token(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 zzz\n")
        with pytest.raises(MeshParseError) as exc:
            load_mesh(path)
        assert exc.value.detail.get("line") == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_mesh(tmp_path / "nope.off")


class TestOperators:
    def test_equilateral_cotan_weight(self):
        """Interior edge of two equilateral triangles: off-diagonal equals
        -(cot 60 + cot 60)/2 = -1/sqrt(3)."""
        h = math.sqrt(3.0) / 2.0
        verts = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.5, h, 0.0],
                [0.5, -h, 0.0],
                [0.5, 0.0, 10.0],  # apex closing the surface
            ]
        )
        faces = np.array(
            [[0, 1, 2], [0, 3, 1], [0, 2, 4], [2, 1, 4], [1, 3, 4], [3, 0, 4]]
        )
        ops = assemble_operators(mesh_from_arrays(verts, faces))
        val = ops.stiffness[0, 1]
        assert val == pytest.approx(-1.0 / math.sqrt(3.0), rel=1e-12)

    def test_stiffness_zero_row_sums(self, ico_ops):
        ops = ico_ops(2)
        row_sums = np.asarray(ops.stiffness.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums)) < 1e-12

    def test_stiffness_symmetric_psd(self, ico_ops):
        ops = ico_ops(2)
        asym = (ops.stiffness - ops.stiffness.T)
        assert abs(asym).max() < 1e-14
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.standard_normal(ops.stiffness.shape[0])
            assert x @ (ops.stiffness @ x) > -1e-10

    def test_mass_is_vertex_area(self, ico_mesh, ico_ops):
        mesh, ops = ico_mesh(2), ico_ops(2)
        np.testing.assert_allclose(ops.mass_diag, mesh.vertex_area, rtol=1e-15)
        assert ops.mass_diag.sum() == pytest.approx(mesh.total_area, rel=1e-13)

    @pytest.mark.parametrize("scale", [1e78, 1e100, 1e150])
    def test_huge_coordinates_assemble_like_the_unit_sphere(self, ico_mesh, ico_ops, scale):
        """Areas up to ~1e300 are representable, so the cross-product norms
        must not square their way to overflow."""
        verts, faces = icosphere(2)
        mesh = mesh_from_arrays(verts * scale, faces)
        assert abs(assemble_operators(mesh).stiffness - ico_ops(2).stiffness).max() < 1e-14
        np.testing.assert_allclose(
            mesh.vertex_area / scale**2, ico_mesh(2).vertex_area, rtol=1e-14)
        np.testing.assert_allclose(
            face_normals(verts * scale, faces), face_normals(verts, faces), atol=1e-15)

    def test_row_norms_match_numpy_bit_for_bit(self):
        """The power-of-two scaling is exact, so rows whose squares are
        representable keep every bit of np.linalg.norm."""
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((2000, 3)) * 10.0 ** rng.uniform(-150, 150, (2000, 1))
        assert np.array_equal(row_norms(rows), np.linalg.norm(rows, axis=1))

    def test_rigid_motion_invariance(self):
        verts, faces = icosphere(2)
        ops1 = assemble_operators(mesh_from_arrays(verts, faces))
        # rotation by a fixed orthogonal matrix plus a translation
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        moved = verts @ rot.T + np.array([3.0, -1.0, 2.0])
        ops2 = assemble_operators(mesh_from_arrays(moved, faces))
        diff = abs(ops1.stiffness - ops2.stiffness).max()
        assert diff < 1e-12
        np.testing.assert_allclose(ops1.mass_diag, ops2.mass_diag, rtol=1e-12)


class TestGradients:
    def test_affine_field_exact(self, ico_mesh):
        mesh = ico_mesh(2)
        coeff = np.array([0.3, -1.2, 0.8])
        u = mesh.vertices @ coeff + 5.0
        grads = face_gradients(mesh, u)
        # the tangential part of the coefficient vector is recovered exactly
        from specgeom.mesh import face_normals

        normals = face_normals(mesh.vertices, mesh.faces)
        tangential = coeff - normals * (normals @ coeff)[:, None]
        np.testing.assert_allclose(grads, tangential, atol=1e-12)

    def test_coordinate_gradients_norm(self, ico_mesh):
        """Per face, the three coordinate gradients satisfy
        sum_A |grad x_A|^2 = 2 exactly (affine restriction to a plane)."""
        mesh = ico_mesh(2)
        total = np.zeros(mesh.n_faces)
        for axis in range(3):
            g = face_gradients(mesh, mesh.vertices[:, axis])
            total += np.sum(g * g, axis=1)
        np.testing.assert_allclose(total, 2.0, atol=1e-12)

    def test_vertex_average_of_constant(self, ico_mesh):
        mesh = ico_mesh(1)
        averaged = vertex_average_from_faces(mesh, np.ones(mesh.n_faces))
        np.testing.assert_allclose(averaged, 1.0, rtol=1e-14)


class TestCurvature:
    def test_gauss_bonnet_sphere(self, ico_mesh):
        defects = angle_defects(ico_mesh(3))
        assert defects.sum() == pytest.approx(4.0 * math.pi, abs=1e-9)

    def test_gauss_bonnet_torus(self, revolution_torus_mesh):
        defects = angle_defects(revolution_torus_mesh)
        assert abs(defects.sum()) < 1e-9

    def test_sphere_willmore(self, ico_mesh, ico_ops):
        extr = extrinsic_summary(ico_mesh(4), ico_ops(4))
        assert extr.willmore == pytest.approx(4.0 * math.pi, rel=2e-3)
        assert extr.volume == pytest.approx(ico_mesh(4).total_area, rel=1e-13)

    def test_sphere_h_sq_field(self, ico_mesh, ico_ops):
        mesh, ops = ico_mesh(4), ico_ops(4)
        h_sq = mean_curvature_field(mesh, ops)
        # pointwise within a few percent on a good sphere mesh
        assert np.median(np.abs(h_sq - 1.0)) < 0.05

    def test_radius_scaling_of_h(self, ico_mesh):
        mesh = ico_mesh(3, radius=2.0)
        ops = assemble_operators(mesh)
        h_sq = mean_curvature_field(mesh, ops)
        assert np.median(np.abs(h_sq - 0.25)) < 0.02

    def test_mesh_area_accuracy(self, ico_mesh):
        # inscribed polyhedral area converges to the smooth value
        assert ico_mesh(4).total_area == pytest.approx(4.0 * math.pi, rel=2e-3)
        err4 = abs(ico_mesh(4).total_area - 4.0 * math.pi)
        err3 = abs(ico_mesh(3).total_area - 4.0 * math.pi)
        assert err4 < err3 / 3.0  # second-order convergence

    def test_b_sq_nonnegative(self, ico_mesh, ico_ops):
        extr = extrinsic_summary(ico_mesh(3), ico_ops(3))
        assert np.min(extr.B_sq) >= 0.0

    def test_gauss_identity_on_fields(self, ico_mesh, ico_ops):
        extr = extrinsic_summary(ico_mesh(3), ico_ops(3))
        residual = 4.0 * extr.H_sq - extr.B_sq - extr.S
        # identity holds wherever the clamp did not engage
        assert np.max(np.abs(residual)) < 1e-10 or extr.clamped > 0
