"""Closed triangle meshes: loading, validation, operators, curvature fields.

The discrete pipeline follows the classical cotangent scheme: stiffness
matrix L with edge weights (cot alpha + cot beta)/2, barycentric lumped
mass matrix M, discrete Laplacian M^{-1} L applied to the coordinate
functions for the mean curvature, and angle defects for the scalar
curvature.  Only closed, edge-manifold, consistently oriented surfaces in
R^3 are accepted; every violation is reported as a structured error.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import (
    ClosedSurfaceRequiredError,
    MeshParseError,
    MeshValidationError,
)

# |cot| beyond this means a triangle angle within ~1e-8 of 0 or pi
COT_CLAMP = 1e8

# relative to the squared bounding-box diagonal
DEGENERATE_AREA_REL = 1e-14


@dataclass(frozen=True)
class MeshGeometry:
    """Validated closed triangle mesh with precomputed vertex areas."""

    vertices: np.ndarray
    faces: np.ndarray
    vertex_area: np.ndarray
    total_area: float

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @functools.cached_property
    def n_components(self) -> int:
        """Connected components of the face graph: the kernel dimension of
        the cotangent Laplacian, whose null space is the locally constant
        functions.  Not read off the stiffness, as a cotangent can be 0."""
        # imported on first use, so model-only commands skip its ~1 MiB
        from scipy.sparse.csgraph import connected_components

        heads = np.roll(self.faces, -1, axis=1).ravel()
        edges = sparse.coo_matrix((np.ones(heads.size), (self.faces.ravel(), heads)),
                                  shape=(self.n_vertices,) * 2)
        return int(connected_components(edges, directed=False)[0])


@dataclass(frozen=True)
class SparseOperatorPair:
    """Cotangent stiffness and lumped mass matrix of a mesh.

    ``clamp_count`` records how many cotangents hit the clamp threshold
    during assembly (near-degenerate corners).
    """

    stiffness: sparse.csr_matrix
    mass: sparse.csr_matrix
    clamp_count: int

    @property
    def mass_diag(self) -> np.ndarray:
        return self.mass.diagonal()


@dataclass(frozen=True)
class ExtrinsicData:
    """Per-vertex extrinsic curvature fields of an embedded surface.

    ``B_sq`` is derived through the Gauss identity n^2 H^2 - S with n = 2
    and clamped at zero; ``clamped`` counts the vertices where the clamp
    engaged.
    """

    H_sq: np.ndarray
    S: np.ndarray
    B_sq: np.ndarray
    willmore: float
    volume: float
    clamped: int


# ---------------------------------------------------------------------------
# parsing


def _tokenized_lines(path):
    """Yield (line_number, tokens) with blank and comment lines removed."""
    with open(path, "r", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line.split()


def _parse_off(path):
    rows = _tokenized_lines(path)
    try:
        lineno, tokens = next(rows)
    except StopIteration:
        raise MeshParseError("empty OFF file", path=str(path), line=0)
    counts = None
    if tokens[0].upper() == "OFF":
        if len(tokens) > 1:
            counts = (lineno, tokens[1:])
    else:
        # headerless variant: counts on the first line
        counts = (lineno, tokens)
    if counts is None:
        try:
            counts = next(rows)
        except StopIteration:
            raise MeshParseError("missing OFF count line", path=str(path), line=lineno)
    lineno, tokens = counts
    if len(tokens) < 2:
        raise MeshParseError("OFF count line needs vertex and face counts",
                             path=str(path), line=lineno)
    try:
        n_verts, n_faces = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise MeshParseError("OFF counts are not integers", path=str(path), line=lineno)
    if n_verts < 0 or n_faces < 0:
        raise MeshParseError("negative OFF counts", path=str(path), line=lineno)

    verts = np.empty((n_verts, 3), dtype=float)
    for i in range(n_verts):
        try:
            lineno, tokens = next(rows)
        except StopIteration:
            raise MeshParseError("OFF file ends inside vertex block",
                                 path=str(path), line=lineno)
        if len(tokens) != 3:
            raise MeshParseError("vertex line must hold exactly 3 coordinates",
                                 path=str(path), line=lineno)
        try:
            verts[i] = [float(t) for t in tokens]
        except ValueError:
            raise MeshParseError("vertex coordinate is not a number",
                                 path=str(path), line=lineno)

    faces = np.empty((n_faces, 3), dtype=np.int64)
    for i in range(n_faces):
        try:
            lineno, tokens = next(rows)
        except StopIteration:
            raise MeshParseError("OFF file ends inside face block",
                                 path=str(path), line=lineno)
        try:
            arity = int(tokens[0])
        except ValueError:
            raise MeshParseError("face line must start with its vertex count",
                                 path=str(path), line=lineno)
        if arity != 3 or len(tokens) != 4:
            raise MeshParseError("only triangular faces are supported",
                                 path=str(path), line=lineno)
        try:
            faces[i] = [int(t) for t in tokens[1:]]
        except ValueError:
            raise MeshParseError("face index is not an integer",
                                 path=str(path), line=lineno)
    return verts, faces


def _parse_obj(path):
    verts = []
    faces = []
    # normals, texture coordinates, groups and materials play no part in
    # the Laplacian and are skipped
    for lineno, tokens in _tokenized_lines(path):
        key = tokens[0]
        if key == "v":
            if len(tokens) < 4:
                raise MeshParseError("vertex line needs 3 coordinates",
                                     path=str(path), line=lineno)
            try:
                verts.append([float(t) for t in tokens[1:4]])
            except ValueError:
                raise MeshParseError("vertex coordinate is not a number",
                                     path=str(path), line=lineno)
        elif key == "f":
            if len(tokens) != 4:
                raise MeshParseError("only triangular faces are supported",
                                     path=str(path), line=lineno)
            idx = []
            for tok in tokens[1:]:
                head = tok.split("/", 1)[0]
                try:
                    value = int(head)
                except ValueError:
                    raise MeshParseError("face index is not an integer",
                                         path=str(path), line=lineno)
                if value < 1:
                    raise MeshParseError("face indices must be positive",
                                         path=str(path), line=lineno)
                idx.append(value - 1)
            faces.append(idx)
    if not verts:
        raise MeshParseError("OBJ file holds no vertices", path=str(path), line=0)
    return (
        np.asarray(verts, dtype=float),
        np.asarray(faces, dtype=np.int64).reshape(-1, 3),
    )


# ---------------------------------------------------------------------------
# validation


def _decode_edge(key, n_verts):
    return (int(key // n_verts), int(key % n_verts))


def _validate(verts: np.ndarray, faces: np.ndarray) -> MeshGeometry:
    n_verts = len(verts)
    if n_verts < 4 or len(faces) < 4:
        raise MeshValidationError(
            "a closed surface needs at least 4 vertices and 4 faces",
            n_vertices=n_verts,
            n_faces=len(faces),
        )
    if not np.all(np.isfinite(verts)):
        raise MeshValidationError("non-finite vertex coordinates")
    if faces.min() < 0 or faces.max() >= n_verts:
        bad = int(np.argmax((faces < 0) | (faces >= n_verts), axis=None))
        raise MeshValidationError(
            "face %d references a vertex outside 0..%d" % (bad // 3, n_verts - 1),
            face=bad // 3,
        )

    referenced = np.zeros(n_verts, dtype=bool)
    referenced[faces.ravel()] = True
    if not referenced.all():
        orphan = int(np.flatnonzero(~referenced)[0])
        raise MeshValidationError(
            "vertex %d is not referenced by any face" % orphan, vertex=orphan
        )

    # overflow at extreme scales yields inf areas, and nan where inf - inf
    # meets in the cross product; the first infinite one is named
    with np.errstate(over="ignore", invalid="ignore"):
        areas = face_areas(verts, faces)
        bbox_diag_sq = float(np.sum((verts.max(axis=0) - verts.min(axis=0)) ** 2))
        total_area = float(areas.sum())
    rank = np.where(np.isinf(areas), 0, np.where(np.isnan(areas), 1, 2))
    f = int(np.argmin(rank))
    if rank[f] < 2:
        raise MeshValidationError(
            "face %d area overflows (area %g); coordinates are too large" % (f, areas[f]),
            face=f,
            area=float(areas[f]),
        )
    # the degeneracy threshold squares the extent: it overflows before a face area
    if not (np.isfinite(bbox_diag_sq) and np.isfinite(total_area)):
        raise MeshValidationError(
            "mesh extent overflows (total area %g, squared bounding-box "
            "diagonal %g); coordinates are too large" % (total_area, bbox_diag_sq),
            total_area=total_area,
            bbox_diag_sq=bbox_diag_sq,
        )
    degenerate = np.flatnonzero(areas <= DEGENERATE_AREA_REL * max(bbox_diag_sq, 1e-30))
    if degenerate.size:
        f = int(degenerate[0])
        raise MeshValidationError(
            "face %d is degenerate (area %g)" % (f, areas[f]),
            face=f,
            area=float(areas[f]),
        )

    # undirected edge bookkeeping: exactly two faces per edge, one per
    # direction.  Edge (i, j) is keyed as i * n_verts + j, so sorting the keys
    # sorts the edges lexicographically and the first offending edge reported
    # is the lexicographically first.
    tails = faces.ravel()
    heads = np.roll(faces, -1, axis=1).ravel()
    lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
    uniq, counts = np.unique(lo * n_verts + hi, return_counts=True)
    over = np.flatnonzero(counts > 2)
    if over.size:
        e = _decode_edge(uniq[over[0]], n_verts)
        raise MeshValidationError(
            "edge (%d, %d) is shared by %d faces" % (*e, counts[over[0]]),
            edge=e,
            face_count=int(counts[over[0]]),
        )
    boundary = np.flatnonzero(counts == 1)
    if boundary.size:
        e = _decode_edge(uniq[boundary[0]], n_verts)
        raise ClosedSurfaceRequiredError(
            "edge (%d, %d) lies on a boundary" % e,
            edge=e,
        )
    uniq_dir, dir_counts = np.unique(tails * n_verts + heads, return_counts=True)
    repeated = np.flatnonzero(dir_counts > 1)
    if repeated.size:
        e = _decode_edge(uniq_dir[repeated[0]], n_verts)
        raise MeshValidationError(
            "edge (%d, %d) is traversed twice in the same direction; "
            "orientation is inconsistent" % e,
            edge=e,
        )

    vertex_area = np.zeros(n_verts)
    np.add.at(vertex_area, faces.ravel(), np.repeat(areas / 3.0, 3))
    return MeshGeometry(
        vertices=np.ascontiguousarray(verts, dtype=float),
        faces=np.ascontiguousarray(faces, dtype=np.int64),
        vertex_area=vertex_area,
        total_area=total_area,
    )


def mesh_from_arrays(verts: np.ndarray, faces: np.ndarray) -> MeshGeometry:
    """Validate raw arrays and build a :class:`MeshGeometry`."""
    return _validate(np.asarray(verts, dtype=float),
                     np.asarray(faces, dtype=np.int64))


def load_mesh(path, fmt: str | None = None) -> MeshGeometry:
    """Load and validate a closed triangle mesh from an OFF or OBJ file."""
    name = str(path).lower()
    if fmt is None:
        if name.endswith(".off"):
            fmt = "off"
        elif name.endswith(".obj"):
            fmt = "obj"
        else:
            raise MeshParseError(
                "cannot infer mesh format from %r" % (str(path),), path=str(path)
            )
    if fmt == "off":
        verts, faces = _parse_off(path)
    elif fmt == "obj":
        verts, faces = _parse_obj(path)
    else:
        raise MeshParseError("unknown mesh format %r" % (fmt,), path=str(path))
    return _validate(verts, faces)


# ---------------------------------------------------------------------------
# geometry helpers


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, taken after scaling the row by an exact
    power of two, so squares cannot overflow while the norm is finite;
    rows whose squares are representable get np.linalg.norm's bits."""
    # a column-wise maximum: max(axis=1) over three columns is ~10x slower
    _, exp = np.frexp(functools.reduce(np.maximum, np.abs(x).T))
    return np.ldexp(np.linalg.norm(np.ldexp(x, -exp[:, None]), axis=1), exp)


def face_areas(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    cross = np.cross(
        verts[faces[:, 1]] - verts[faces[:, 0]],
        verts[faces[:, 2]] - verts[faces[:, 0]],
    )
    return 0.5 * row_norms(cross)


def face_normals(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    cross = np.cross(
        verts[faces[:, 1]] - verts[faces[:, 0]],
        verts[faces[:, 2]] - verts[faces[:, 0]],
    )
    return cross / row_norms(cross)[:, None]


def face_gradients(mesh: MeshGeometry, u: np.ndarray) -> np.ndarray:
    """Gradient of the piecewise-linear interpolant of ``u``, per face.

    grad u = sum_corners u_c * (n x e_c) / (2A) with e_c the edge opposite
    corner c, oriented with the face.
    """
    verts, faces = mesh.vertices, mesh.faces
    u = np.asarray(u, dtype=float)
    normals = face_normals(verts, faces)
    areas = face_areas(verts, faces)
    grad = np.zeros((len(faces), 3))
    for c, (a, b) in enumerate([(1, 2), (2, 0), (0, 1)]):
        opposite = verts[faces[:, b]] - verts[faces[:, a]]
        grad += u[faces[:, c], None] * np.cross(normals, opposite)
    return grad / (2.0 * areas[:, None])


def vertex_average_from_faces(mesh: MeshGeometry, face_values: np.ndarray) -> np.ndarray:
    """Mass-weighted average of per-face values onto vertices."""
    areas = face_areas(mesh.vertices, mesh.faces)
    out = np.zeros(mesh.n_vertices)
    np.add.at(out, mesh.faces.ravel(), np.repeat(face_values * areas / 3.0, 3))
    return out / mesh.vertex_area


def angle_defects(mesh: MeshGeometry) -> np.ndarray:
    """2*pi minus the sum of incident triangle angles, per vertex."""
    verts, faces = mesh.vertices, mesh.faces
    defect = np.full(mesh.n_vertices, 2.0 * np.pi)
    for c, (a, b) in enumerate([(1, 2), (2, 0), (0, 1)]):
        u = verts[faces[:, a]] - verts[faces[:, c]]
        v = verts[faces[:, b]] - verts[faces[:, c]]
        cosang = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        angles = np.arccos(np.clip(cosang, -1.0, 1.0))
        np.subtract.at(defect, faces[:, c], angles)
    return defect


# ---------------------------------------------------------------------------
# operators and curvature


def assemble_operators(mesh: MeshGeometry) -> SparseOperatorPair:
    """Cotangent stiffness matrix and barycentric lumped mass matrix.

    L is symmetric positive semidefinite with zero row sums; M is the
    diagonal of vertex areas.  Cotangents are clamped to +-1e8 and the
    number of clamped corners is recorded.
    """
    verts, faces = mesh.vertices, mesh.faces
    rows, cols, vals = [], [], []
    clamp_count = 0
    for c, (a, b) in enumerate([(1, 2), (2, 0), (0, 1)]):
        u = verts[faces[:, a]] - verts[faces[:, c]]
        v = verts[faces[:, b]] - verts[faces[:, c]]
        cross_norm = row_norms(np.cross(u, v))
        cot = np.einsum("ij,ij->i", u, v) / np.maximum(cross_norm, 1e-300)
        clamped = np.abs(cot) > COT_CLAMP
        clamp_count += int(np.count_nonzero(clamped))
        cot = np.clip(cot, -COT_CLAMP, COT_CLAMP)
        w = 0.5 * cot
        i, j = faces[:, a], faces[:, b]
        rows.extend([i, j, i, j])
        cols.extend([j, i, i, j])
        vals.extend([-w, -w, w, w])
    n = mesh.n_vertices
    stiffness = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    mass = sparse.csr_matrix(sparse.diags(mesh.vertex_area))
    return SparseOperatorPair(stiffness=stiffness, mass=mass, clamp_count=clamp_count)


def mean_curvature_field(mesh: MeshGeometry, ops: SparseOperatorPair) -> np.ndarray:
    """Squared mean curvature from the coordinate Laplacians.

    Uses sum_A (Delta x_A)^2 = n^2 H^2 with n = 2 and the discrete
    Laplacian Delta = M^{-1} L applied to the three coordinates.
    """
    coord_lap = ops.stiffness @ mesh.vertices / mesh.vertex_area[:, None]
    return np.einsum("ij,ij->i", coord_lap, coord_lap) / 4.0


def scalar_curvature_field(mesh: MeshGeometry) -> np.ndarray:
    """Scalar curvature (twice the Gauss curvature) from angle defects."""
    return 2.0 * angle_defects(mesh) / mesh.vertex_area


def extrinsic_summary(mesh: MeshGeometry, ops: SparseOperatorPair) -> ExtrinsicData:
    """All extrinsic curvature fields plus the Willmore energy."""
    H_sq = mean_curvature_field(mesh, ops)
    S = scalar_curvature_field(mesh)
    B_raw = 4.0 * H_sq - S
    clamped = int(np.count_nonzero(B_raw < 0.0))
    B_sq = np.maximum(B_raw, 0.0)
    willmore = float(np.dot(H_sq, mesh.vertex_area))
    return ExtrinsicData(
        H_sq=H_sq,
        S=S,
        B_sq=B_sq,
        willmore=willmore,
        volume=mesh.total_area,
        clamped=clamped,
    )
