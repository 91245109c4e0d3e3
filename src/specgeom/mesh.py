"""Closed triangle meshes: loading, validation, operators, their
factorization order, curvature fields.

The discrete pipeline follows the classical cotangent scheme: stiffness
matrix L with edge weights (cot alpha + cot beta)/2, barycentric lumped
mass matrix M, discrete Laplacian M^{-1} L applied to the coordinate
functions for the mean curvature, and angle defects for the scalar
curvature.  Only closed, edge-manifold, consistently oriented surfaces in
R^3 are accepted; every violation is reported as a structured error.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ClosedSurfaceRequiredError,
    MeshParseError,
    MeshValidationError,
)

# scipy.sparse is imported by the functions that build matrices, so this
# module, and loading and validating a mesh, go without scipy
if TYPE_CHECKING:
    from scipy import sparse

# |cot| beyond this means a triangle angle within ~1e-8 of 0 or pi
COT_CLAMP = 1e8

# relative to the squared bounding-box diagonal
DEGENERATE_AREA_REL = 1e-14

# each corner c of a face with the corners (a, b) that follow it
CORNERS = ((1, 2), (2, 0), (0, 1))

# parts of at most this many vertices are not split further
DISSECTION_LEAF = 64


@dataclass(frozen=True)
class MeshGeometry:
    """Validated closed triangle mesh with precomputed face and vertex areas."""

    vertices: np.ndarray
    faces: np.ndarray
    face_area: np.ndarray
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
        # csgraph only here: mesh commands that never count components
        # (spectrum, check with --m) skip its ~1 MiB
        from scipy import sparse
        from scipy.sparse.csgraph import connected_components

        heads = np.roll(self.faces, -1, axis=1).ravel()
        edges = sparse.coo_matrix((np.ones(heads.size), (self.faces.ravel(), heads)),
                                  shape=(self.n_vertices,) * 2)
        return int(connected_components(edges, directed=False)[0])

    @functools.cached_property
    def face_normals(self) -> np.ndarray:
        """Unit normal of each face, oriented by its vertex order."""
        return _face_cross(self.vertices, self.faces) / (2.0 * self.face_area)[:, None]


@dataclass(frozen=True)
class SparseOperatorPair:
    """Cotangent stiffness and lumped mass matrix of a mesh.

    ``clamp_count`` records how many cotangents hit the clamp threshold
    during assembly (near-degenerate corners).  ``ordering`` is the vertex
    order every factorization of the pencil uses (see
    :func:`nested_dissection`); a pair built from bare matrices passes
    ``np.arange(n)``.
    """

    stiffness: sparse.csr_matrix
    mass: sparse.csr_matrix
    clamp_count: int
    ordering: np.ndarray

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
    clamped: int


# ---------------------------------------------------------------------------
# parsing


# face indices are stored as int64
INDEX_MAX = np.iinfo(np.int64).max

# raw lines read and converted at a time: parsing holds one block's tokens,
# and an OFF header's counts, which are only claims, size nothing
BLOCK_LINES = 1024


def _rows(lines, lineno):
    """Yield (line number, tokens) of the ``lines`` that hold data, with
    comments cut; the first line is number ``lineno``."""
    for lineno, raw in enumerate(lines, start=lineno):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line.split()


def _table(lines, width):
    """The tokens of ``lines`` as a (len(lines), width) object array, or
    None when a comment or the token count rules that shape out.

    One split reads the whole block, with a ';' token closing each line,
    and the table drops the column where those land.  Callers turn every
    entry into a number or a known key, which ';' is not.  When that
    succeeds, every ';' sat in the dropped column, which has one slot per
    line, so each line held exactly ``width`` tokens.
    """
    text = " ; ".join(lines) + " ;"
    if "#" in text:
        return None
    tokens = text.split()
    if len(tokens) != (width + 1) * len(lines):
        return None
    return np.array(tokens, dtype=object).reshape(len(lines), width + 1)[:, :width]


def _off_vertices_bulk(lines):
    table = _table(lines, 3)
    try:
        return None if table is None else table.astype(float)
    except ValueError:
        return None


def _off_faces_bulk(lines):
    table = _table(lines, 4)
    try:
        faces = None if table is None else table.astype(np.int64)
    except (ValueError, OverflowError):
        return None
    return None if faces is None or np.any(faces[:, 0] != 3) else faces[:, 1:]


def _off_vertices(rows, count, lineno, path):
    verts = np.empty((count, 3))
    for i in range(count):
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
    return verts, lineno


def _off_faces(rows, count, lineno, path):
    faces = np.empty((count, 3), dtype=np.int64)
    for i in range(count):
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
        except OverflowError:
            raise MeshParseError("face index does not fit in 64 bits",
                                 path=str(path), line=lineno)
    return faces, lineno


def _off_block(fh, path, count, lineno, bulk, by_line):
    """The ``count`` data lines of an OFF block that starts after line
    ``lineno``, as an array, and the number of the last line read.

    Each run of raw lines is converted in bulk.  A run that does not
    convert (comments, blank lines, bad tokens, the end of the file) is
    read again line by line, on past the run as far as blank lines
    require, and a bad line raises the error that names it."""
    parts = []
    for lo in range(0, count, BLOCK_LINES):
        want = min(BLOCK_LINES, count - lo)
        lines = list(itertools.islice(fh, want))
        part = bulk(lines) if len(lines) == want else None
        if part is None:
            rows = _rows(itertools.chain(lines, fh), lineno + 1)
            part, lineno = by_line(rows, want, lineno, path)
        else:
            lineno += want
        parts.append(part)
    return parts, lineno


def _parse_off(path):
    with open(path, "r", errors="replace") as fh:
        rows = _rows(fh, 1)
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
        # the header read up to its count line, so line ``lineno`` is the
        # last one taken from ``fh``
        verts, lineno = _off_block(fh, path, n_verts, lineno, _off_vertices_bulk, _off_vertices)
        faces, _ = _off_block(fh, path, n_faces, lineno, _off_faces_bulk, _off_faces)
    return (np.concatenate([np.empty((0, 3))] + verts),
            np.concatenate([np.empty((0, 3), dtype=np.int64)] + faces))


def _obj_bulk(lines):
    """Vertices and faces of ``lines`` when each is a ``v`` line of 3
    coordinates or an ``f`` line of 3 indices, else None."""
    table = _table(lines, 4)
    if table is None:
        return None
    is_v, is_f = table[:, 0] == "v", table[:, 0] == "f"
    if not np.all(is_v | is_f):
        return None
    indices = " ".join(table[is_f, 1:].ravel())
    if "/" in indices:
        indices = re.sub(r"/\S*", "", indices)
    try:
        verts = table[is_v, 1:].astype(float)
        faces = np.array(indices.split(), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    if len(faces) != 3 * np.count_nonzero(is_f) or np.any(faces < 1):
        return None
    return verts, faces.reshape(-1, 3) - 1


def _obj_lines(lines, lineno, path):
    verts = []
    faces = []
    # normals, texture coordinates, groups and materials play no part in
    # the Laplacian and are skipped
    for lineno, tokens in _rows(lines, lineno):
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
                if value > INDEX_MAX:
                    raise MeshParseError("face index does not fit in 64 bits",
                                         path=str(path), line=lineno)
                idx.append(value - 1)
            faces.append(idx)
    return (np.asarray(verts, dtype=float).reshape(-1, 3),
            np.asarray(faces, dtype=np.int64).reshape(-1, 3))


def _parse_obj(path):
    """Blocks of lines converted in bulk, or line by line where they are
    not plain ``v``/``f`` lines (see :func:`_off_block`)."""
    verts = [np.empty((0, 3))]
    faces = [np.empty((0, 3), dtype=np.int64)]
    lineno = 1
    with open(path, "r", errors="replace") as fh:
        while lines := list(itertools.islice(fh, BLOCK_LINES)):
            block = _obj_bulk(lines) or _obj_lines(lines, lineno, path)
            verts.append(block[0])
            faces.append(block[1])
            lineno += len(lines)
    verts = np.concatenate(verts)
    if not len(verts):
        raise MeshParseError("OBJ file holds no vertices", path=str(path), line=0)
    return verts, np.concatenate(faces)


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
        face_area=areas,
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


def _face_cross(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    return np.cross(
        verts[faces[:, 1]] - verts[faces[:, 0]],
        verts[faces[:, 2]] - verts[faces[:, 0]],
    )


def face_areas(verts: np.ndarray, faces: np.ndarray) -> np.ndarray:
    return 0.5 * row_norms(_face_cross(verts, faces))


def face_gradients(mesh: MeshGeometry, u: np.ndarray) -> np.ndarray:
    """Gradient of the piecewise-linear interpolant of ``u``, per face.

    grad u = sum_corners u_c * (n x e_c) / (2A) with e_c the edge opposite
    corner c, oriented with the face.  Trailing axes of ``u`` hold fields
    of their own and follow the component axis of the result, so
    ``face_gradients(mesh, mesh.vertices)[f, :, A]`` is grad x_A on face f.
    """
    verts, faces = mesh.vertices, mesh.faces
    u = np.asarray(u, dtype=float)
    fields = (None,) * (u.ndim - 1)
    grad = sum(
        np.cross(mesh.face_normals, verts[faces[:, b]] - verts[faces[:, a]])[(...,) + fields]
        * u[faces[:, c], None]
        for c, (a, b) in enumerate(CORNERS)
    )
    return grad / (2.0 * mesh.face_area)[(slice(None), None) + fields]


def vertex_average_from_faces(mesh: MeshGeometry, face_values: np.ndarray) -> np.ndarray:
    """Mass-weighted average of per-face values onto vertices; trailing
    axes of ``face_values`` are averaged one by one."""
    face_values = np.asarray(face_values, dtype=float)
    per_row = (slice(None),) + (None,) * (face_values.ndim - 1)
    out = np.zeros((mesh.n_vertices,) + face_values.shape[1:])
    np.add.at(out, mesh.faces.ravel(),
              np.repeat(face_values * mesh.face_area[per_row] / 3.0, 3, axis=0))
    return out / mesh.vertex_area[per_row]


def angle_defects(mesh: MeshGeometry) -> np.ndarray:
    """2*pi minus the sum of incident triangle angles, per vertex.  The
    angle between corner edges u and v is atan2(|u x v|, u . v), with
    |u x v| twice the face area, accurate at angles near 0 and pi."""
    verts, faces = mesh.vertices, mesh.faces
    defect = np.full(mesh.n_vertices, 2.0 * np.pi)
    for c, (a, b) in enumerate(CORNERS):
        u = verts[faces[:, a]] - verts[faces[:, c]]
        v = verts[faces[:, b]] - verts[faces[:, c]]
        angles = np.arctan2(2.0 * mesh.face_area, np.einsum("ij,ij->i", u, v))
        np.subtract.at(defect, faces[:, c], angles)
    return defect


# ---------------------------------------------------------------------------
# operators and curvature


def _place(position, vertices, part, first):
    """Number ``vertices`` (ascending) consecutively within each of their
    parts, from the part's ``first`` position, in vertex order."""
    order = np.argsort(part, kind="stable")
    vertices, part = vertices[order], part[order]
    position[vertices] = first[part] + np.arange(part.size) - np.searchsorted(part, part)


def nested_dissection(mesh: MeshGeometry) -> np.ndarray:
    """A fill-reducing vertex order for factoring the mesh's operators:
    ``p`` such that ``A[p][:, p]`` puts vertex ``p[i]`` in row ``i``.

    Geometric nested dissection (George, SIAM J. Numer. Anal. 10, 1973;
    Gilbert, Miller & Teng, SIAM J. Sci. Comput. 19, 1998).  Each part is
    split at the median of its vertices along its principal axis, ties
    broken by vertex index, so the splits turn with the mesh.  The
    separator is the left half's vertices with an edge to the right half;
    it is numbered after both halves, in vertex order, and the halves are
    split in turn.  Parts of at most ``DISSECTION_LEAF`` vertices keep
    vertex order.  Every part of one level is split at once, and the
    result depends on nothing but the mesh.
    """
    n = mesh.n_vertices
    # the axes do not depend on scale, and an exact power-of-two scale keeps
    # the covariances finite at every size validation accepts
    verts = np.ldexp(mesh.vertices, -np.frexp(np.max(np.abs(mesh.vertices)))[1])
    # each edge once: a closed, consistently oriented mesh runs it once in
    # each direction
    tails, heads = mesh.faces.ravel(), np.roll(mesh.faces, -1, axis=1).ravel()
    tails, heads = tails[tails < heads], heads[tails < heads]
    position = np.empty(n, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    left = np.zeros(n, dtype=bool)
    # the vertices still to place, ascending, with their part and each
    # part's first position
    active, part, first = np.arange(n), np.zeros(n, dtype=np.int64), np.zeros(1, dtype=np.int64)
    while active.size:
        size = np.bincount(part, minlength=len(first))
        leaf = size[part] <= DISSECTION_LEAF
        _place(position, active[leaf], part[leaf], first)
        done[active[leaf]] = True
        split = size > DISSECTION_LEAF
        active, part = active[~leaf], (np.cumsum(split) - 1)[part[~leaf]]
        first, size = first[split], size[split]
        parts = len(first)
        # each part's principal axis, signed by its largest component
        x = verts[active]
        mean = np.stack([np.bincount(part, x[:, a], parts) for a in range(3)], axis=1)
        x -= (mean / size[:, None])[part]
        cov = np.empty((parts, 3, 3))
        for a in range(3):
            for b in range(a + 1):
                cov[:, a, b] = cov[:, b, a] = np.bincount(part, x[:, a] * x[:, b], parts)
        axis = np.linalg.eigh(cov)[1][:, :, -1]
        axis *= np.sign(axis[np.arange(parts), np.argmax(np.abs(axis), axis=1)])[:, None]
        # a stable sort: equal projections keep vertex order
        rank = np.empty(active.size, dtype=np.int64)
        rank[np.lexsort((np.einsum("ij,ij->i", x, axis[part]), part))] = np.arange(active.size)
        is_left = rank - (np.cumsum(size) - size)[part] < (size // 2)[part]
        left[active] = is_left
        # edges to placed vertices left the recursion with them
        live = ~(done[tails] | done[heads])
        tails, heads = tails[live], heads[live]
        cut = left[tails] != left[heads]
        done[np.where(left[tails[cut]], tails[cut], heads[cut])] = True
        tails, heads = tails[~cut], heads[~cut]
        sep = done[active]
        n_left = np.bincount(part, is_left & ~sep, parts).astype(np.int64)
        n_right = size - np.bincount(part, is_left, parts).astype(np.int64)
        _place(position, active[sep], part[sep], first + n_left + n_right)
        right = ~is_left[~sep]
        active, part = active[~sep], 2 * part[~sep] + right
        first = np.stack([first, first + n_left], axis=1).ravel()
    order = np.empty(n, dtype=np.int64)
    order[position] = np.arange(n)
    return order


def assemble_operators(mesh: MeshGeometry) -> SparseOperatorPair:
    """Cotangent stiffness matrix and barycentric lumped mass matrix.

    L is symmetric positive semidefinite with zero row sums; M is the
    diagonal of vertex areas.  Cotangents are clamped to +-1e8 and the
    number of clamped corners is recorded.  The pair carries the mesh's
    :func:`nested_dissection` order.
    """
    from scipy import sparse

    # before the assembly's own arrays exist, so their peaks do not add up
    ordering = nested_dissection(mesh)
    verts, faces = mesh.vertices, mesh.faces
    rows, cols, vals = [], [], []
    clamp_count = 0
    for c, (a, b) in enumerate(CORNERS):
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
    return SparseOperatorPair(stiffness=stiffness, mass=mass, clamp_count=clamp_count,
                              ordering=ordering)


def coordinate_laplacians(mesh: MeshGeometry, ops: SparseOperatorPair) -> np.ndarray:
    """The discrete Laplacian Delta = M^{-1} L of the coordinate functions:
    column A holds Delta x_A."""
    return ops.stiffness @ mesh.vertices / mesh.vertex_area[:, None]


def mean_curvature_field(mesh: MeshGeometry, ops: SparseOperatorPair) -> np.ndarray:
    """Squared mean curvature from the coordinate Laplacians, through
    sum_A (Delta x_A)^2 = n^2 H^2 with n = 2."""
    coord_lap = coordinate_laplacians(mesh, ops)
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
        clamped=clamped,
    )
