"""Mesh loading, validation, operator assembly, and curvature summaries."""

import itertools
import math
import subprocess
import sys
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
from specgeom import mesh as mesh_module
from specgeom.mesh import (
    SparseOperatorPair,
    angle_defects,
    assemble_operators,
    extrinsic_summary,
    face_areas,
    face_gradients,
    load_mesh,
    mean_curvature_field,
    mesh_from_arrays,
    nested_dissection,
    row_norms,
    vertex_average_from_faces,
)
from specgeom.meshgen import icosphere, random_sphere, torus_of_revolution, write_obj, write_off

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


def bowtie(copies=2):
    """``copies`` tetrahedra that share vertex 0, each after the first
    mirrored through it and rotated about it."""
    verts, faces = [TET_VERTS], [TET_FACES]
    for k in range(1, copies):
        turn = np.array([[math.cos(k), -math.sin(k), 0.0], [math.sin(k), math.cos(k), 0.0],
                         [0.0, 0.0, 1.0]])
        verts.append((2.0 * TET_VERTS[0] - TET_VERTS[1:] - TET_VERTS[0]) @ turn.T
                     + TET_VERTS[0])
        faces.append(np.where(TET_FACES == 0, 0, TET_FACES + 3 * k)[:, ::-1])
    return np.vstack(verts), np.vstack(faces)


def reference_fans(faces):
    """The fans of each vertex, by a plain Python walk: two faces at a
    vertex lie in one fan when they share an edge through it."""
    at = {}
    for f, face in enumerate(faces.tolist()):
        for v in face:
            at.setdefault(v, []).append(f)
    fans = {}
    for v, incident in at.items():
        parent = {f: f for f in incident}

        def find(f):
            while parent[f] != f:
                f = parent[f]
            return f

        for f, g in itertools.combinations(incident, 2):
            if len(set(faces[f].tolist()) & set(faces[g].tolist())) == 2:
                parent[find(f)] = find(g)
        fans[v] = len({find(f) for f in incident})
    return fans


class TestFans:
    """A vertex whose faces form more than one fan is rejected."""

    @pytest.mark.parametrize("copies", [2, 3])
    def test_tetrahedra_sharing_a_vertex_rejected(self, copies):
        with pytest.raises(MeshValidationError, match="non-manifold") as exc:
            mesh_from_arrays(*bowtie(copies))
        assert exc.value.kind == "mesh-validation"
        assert exc.value.detail == {"vertex": 0, "fan_count": copies}

    @settings(deadline=None, max_examples=30)
    @given(st.lists(st.tuples(st.integers(0, 41), st.integers(0, 41)),
                    max_size=4, unique_by=(lambda p: p[0], lambda p: p[1])))
    def test_first_pinched_vertex_matches_reference(self, glue):
        """Two L1 icospheres with the vertex pairs of ``glue`` merged report
        the first vertex that the reference walk finds in more than one
        fan, and load when it finds none."""
        verts, faces = icosphere(1)
        n = len(verts)
        label = np.arange(2 * n)
        for a, b in glue:
            label[n + b] = a
        kept = np.unique(label)
        all_faces = np.searchsorted(kept, label)[np.vstack([faces, faces + n])]
        # the second sphere turned, shrunk and moved off the axes, so that no
        # face through a merged vertex is degenerate
        c, s = math.cos(0.7), math.sin(0.7)
        turn = np.array([[c, -s, 0.0], [s * c, c * c, -s], [s * s, c * s, c]])
        other = 0.8 * verts @ turn.T + [3.0, 0.2, 0.1]
        all_verts = np.vstack([verts, other])[kept]
        fans = reference_fans(all_faces)
        pinched = [v for v in sorted(fans) if fans[v] > 1]
        try:
            mesh_from_arrays(all_verts, all_faces)
        except MeshValidationError as exc:
            # two merged pairs joined by an edge in both spheres put that
            # edge in four faces, which is reported first
            if "edge" not in exc.detail:
                assert exc.detail == {"vertex": pinched[0], "fan_count": fans[pinched[0]]}
        else:
            assert not pinched


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

    @pytest.mark.parametrize("suffix", [".off", ".obj"])
    def test_both_readers_return_contiguous_float64_and_int64(self, tmp_path, suffix):
        """numpy's reader and the line parsers hand validation C-contiguous
        float64 vertices and int64 faces."""
        path = tmp_path / ("ico" + suffix)
        (write_off if suffix == ".off" else write_obj)(path, *icosphere(1))
        parse = mesh_module._parse_off if suffix == ".off" else mesh_module._parse_obj
        for verts, faces in (bulk_parse(path, parse), line_parse(path, parse)):
            assert (verts.dtype, faces.dtype) == (np.float64, np.int64)
            assert verts.flags.c_contiguous and faces.flags.c_contiguous

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_mesh(tmp_path / "nope.off")


def line_parse(path, parse=load_mesh):
    """``parse``'s result with numpy's reader declining every block, so the
    whole file is read line by line."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(mesh_module, "_loadtxt", lambda *args, **kwargs: None)
        return parse(path)


def bulk_parse(path, parse=load_mesh):
    """``parse``'s result where no line parser may run."""
    def line_parser(*args):
        raise AssertionError("numpy's reader declined a block")

    with pytest.MonkeyPatch.context() as m:
        for name in ("_off_vertices", "_off_faces", "_obj_lines"):
            m.setattr(mesh_module, name, line_parser)
        return parse(path)


def assert_same_arrays(a, b):
    for x, y in ((a.vertices, b.vertices), (a.faces, b.faces)):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


def decorate_lines(text, every):
    """``text`` with a comment line, a blank line, a blank-looking line and a
    trailing comment after every ``every``-th line."""
    out = []
    for i, line in enumerate(text.splitlines()):
        out.append(line + ("  # trailing" if i % every == 3 else ""))
        if i % every == 0:
            out.extend(["# a comment", "", "   \t"])
    return "\n".join(out) + "\n"


class Layout:
    """A mesh file's lines as written (``every`` = 0), or in blocks of
    ``every`` lines with a comment line and a blank line after each."""

    def __init__(self, every):
        self.every = every

    def write(self, path, text):
        lines = text.splitlines()
        if self.every:
            lines = [out for i, line in enumerate(lines, 1)
                     for out in ([line, "# block", ""] if i % self.every == 0 else [line])]
        path.write_text("\n".join(lines) + "\n")

    def line(self, lineno):
        """The number that line ``lineno`` of the text has in the file."""
        return lineno + 2 * ((lineno - 1) // self.every) if self.every else lineno


# numbers both readers take, written in several formats
GOOD_FLOATS = st.one_of(
    st.floats().map(repr),
    st.floats(allow_nan=False).map(lambda x: "%.17g" % x),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: "%.3E" % x),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["+inf", "-Infinity", "nan", "-nan", "1e500", "-1e-400", ".5", "5.", "+0"]),
)
# tokens Python's float or int reads and numpy does not, tokens past int32
# or int64, and tokens neither reads or that are no index
ODD_TOKENS = st.sampled_from([
    "1_0", "\u0661", "x", "", "/3", "1/#2", "1.0", "0", "-1", "03", "2147483648",
    "-2147483649", "9223372036854775808", "-9223372036854775809", "99999999999999999999",
])
FILLER = st.sampled_from(["", "# a comment", " \t ", "\x0c", "#v 1 2 3", "#f 1 2 3"])
SPACES = st.sampled_from([" ", "\t", " \t ", "\x0c", "  "])
OBJ_EXTRAS = st.sampled_from(["vn 0 0 1", "vt 0.5 0.5", "usemtl steel", "s 1", "o part", "g group"])
OBJ_BARE_KEYS = st.sampled_from(["v", "f", "v # 1 2 3", "f#1 2 3", "v 1 2 # 3"])


@st.composite
def mesh_texts(draw):
    """An OFF or OBJ text, and whether it is clean.  Any text carries
    comments, blank lines, tabs, form feeds, CRLF and OBJ's other keys; one
    that is not clean has one fault: an odd token, a line of the wrong
    width, a wrong header count (as far as 10^12 past the file's end), an
    OFF face that is no triangle or a ``v`` or ``f`` line with too few
    numbers."""
    suffix = draw(st.sampled_from([".off", ".obj"]))
    obj = suffix == ".obj"
    n_verts, n_faces = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    fault = draw(st.sampled_from([None, "token", "width"] + (["bare key"] if obj else ["count", "arity"])))

    def index():
        if not obj:
            return str(draw(st.integers(-2, n_verts)))
        return "%d%s" % (draw(st.integers(1, n_verts)), draw(st.sampled_from(["", "/2", "/2/3", "//3"])))

    lines = []
    for _ in range(n_verts):
        coords = [draw(GOOD_FLOATS) for _ in range(3)]
        if obj:
            # a w and colours may follow
            coords = ["v"] + coords + [draw(GOOD_FLOATS) for _ in range(draw(st.integers(0, 3)))]
        lines.append(coords)
    lines += [["f" if obj else "3"] + [index() for _ in range(3)] for _ in range(n_faces)]
    line = draw(st.sampled_from(lines[n_verts:] if fault == "arity" else lines))
    if fault == "arity":
        line[0] = draw(st.sampled_from(["4", "2", "0", "-1"]))
    elif fault == "token":
        line[draw(st.integers(int(obj), len(line) - 1))] = draw(ODD_TOKENS)
    elif fault == "width" and draw(st.booleans()):
        line.append("0")
    elif fault == "width":
        line.pop()
    counts = [n_verts, n_faces]
    if fault == "count":
        counts[draw(st.integers(0, 1))] += draw(st.sampled_from([-1, 1, 10**12]))
    if not obj:
        header = draw(st.sampled_from(["OFF\n%d %d 0", "OFF %d %d 0", "%d %d 0"])) % tuple(counts)
        lines = [row.split(" ") for row in header.split("\n")] + lines
    else:
        lines = draw(st.permutations(lines))
        extras = [draw(OBJ_EXTRAS) for _ in range(draw(st.integers(0, 3)))]
        extras += [draw(OBJ_BARE_KEYS)] if fault == "bare key" else []
        for extra in extras:
            lines.insert(draw(st.integers(0, len(lines))), extra.split(" "))
    text = [draw(SPACES).join(tokens) + draw(st.sampled_from(["", "  # trailing"]))
            for tokens in lines]
    for _ in range(draw(st.integers(0, 4))):
        text.insert(draw(st.integers(1, len(text))), draw(FILLER))
    return suffix, fault is None, draw(st.sampled_from(["\n", "\r\n"])).join(text) + "\n"


def parse_result(path, reader):
    """A parser's arrays, as bytes with their dtype and shape, or its error."""
    try:
        verts, faces = reader(path)
    except MeshParseError as exc:
        return exc.to_json_dict()
    return [(a.dtype, a.shape, a.tobytes()) for a in (verts, faces)]


class TestBulkParse:
    """numpy's reader takes each block in one call; a block it declines is
    read line by line, so both give the same arrays and errors.  Each file
    is also written in 7-line blocks, so numpy's rows and the file's lines
    part ways every few lines."""

    @pytest.fixture(params=[0, 7], ids=["default-blocks", "7-line-blocks"])
    def blocks(self, request):
        return Layout(request.param)

    @pytest.mark.parametrize("level", range(5))
    @pytest.mark.parametrize("suffix", [".off", ".obj"])
    def test_bulk_and_line_parsers_agree(self, tmp_path, blocks, level, suffix):
        verts, faces = icosphere(level)
        path = tmp_path / ("ico" + suffix)
        (write_off if suffix == ".off" else write_obj)(path, verts, faces)
        blocks.write(path, path.read_text())
        bulk = bulk_parse(path)
        assert_same_arrays(bulk, line_parse(path))
        assert bulk.vertices.tobytes() == verts.tobytes()
        assert np.array_equal(bulk.faces, faces)

    @pytest.mark.parametrize("variant", ["comments", "headerless", "slashes"])
    def test_variants_match_the_plain_file(self, tmp_path, blocks, variant):
        verts, faces = icosphere(2)
        plain = tmp_path / "plain.obj"
        write_obj(plain, verts, faces)
        path = tmp_path / ("ico.obj" if variant == "slashes" else "ico.off")
        if variant == "slashes":
            text = plain.read_text().replace("f ", "vn 0 0 1\nf ", 1)
            lines = [" ".join("%s/%s/%s" % (t, t, t) if i == 1 else
                              "%s//%s" % (t, t) if i == 2 else t
                              for i, t in enumerate(line.split()))
                     if line.startswith("f ") else line for line in text.splitlines()]
            text = "\n".join(lines)
        else:
            write_off(path, verts, faces)
            text = path.read_text()
            if variant == "headerless":
                text = text.split("\n", 1)[1]
            text = decorate_lines(text, 5)
        blocks.write(path, text)
        expected = load_mesh(plain)
        assert_same_arrays(bulk_parse(path), expected)
        assert_same_arrays(line_parse(path), expected)

    @pytest.mark.parametrize("suffix, row, bad, message", [
        (".off", 400, "1 0 zero", "vertex coordinate is not a number"),
        (".off", 401, "1 0", "vertex line must hold exactly 3 coordinates"),
        (".off", 400 + 642, "3 0 1 x", "face index is not an integer"),
        (".off", 400 + 642, "4 0 1 2 3", "only triangular faces are supported"),
        (".obj", 400, "v 1 0 zero", "vertex coordinate is not a number"),
        (".obj", 400 + 642, "f 1 2 0", "face indices must be positive"),
        (".obj", 400 + 642, "f 1 x/2 3", "face index is not an integer"),
        (".obj", 400 + 642, "f 1 2 /3", "face index is not an integer"),
        # a short line and a long one hold as many tokens as two good lines
        (".off", 400, "1 0\n0 1 0 0", "vertex line must hold exactly 3 coordinates"),
        (".obj", 400 + 642, "f 1 2\nf 1 2 3 4", "only triangular faces are supported"),
        # a comment inside a face token leaves two indices
        (".obj", 400 + 642, "f 1/#2 2 3", "only triangular faces are supported"),
    ])
    def test_a_deep_bad_token_names_its_line(self, tmp_path, blocks,
                                             suffix, row, bad, message):
        """The bad line sits deep in a block, after comments and blank lines."""
        verts, faces = icosphere(3)
        path = tmp_path / ("bad" + suffix)
        (write_off if suffix == ".off" else write_obj)(path, verts, faces)
        offset = 2 if suffix == ".off" else 0
        lines = path.read_text().splitlines()
        lines[offset + row:offset + row + bad.count("\n") + 1] = bad.split("\n")
        lines[10:10] = ["# comment", ""]
        blocks.write(path, "\n".join(lines))
        errors = []
        for parse in (load_mesh, line_parse):
            with pytest.raises(MeshParseError) as exc:
                parse(path)
            errors.append(exc.value.to_json_dict())
        assert errors[0] == errors[1]
        assert errors[0]["message"] == message
        assert errors[0]["detail"]["line"] == blocks.line(offset + row + 3)

    @pytest.mark.parametrize("name, text, message, line", [
        ("semicolon.off", "OFF\n4 4 0\n0 0 0 ;\n1 0\n", "vertex line must hold exactly 3 coordinates", 3),
        ("semicolon.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2 ;\n; 1 2 4\n",
         "only triangular faces are supported", 5),
        ("shifted.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\nf 1 3 2 ;\n1 2 4\n",
         "only triangular faces are supported", 5),
    ])
    def test_a_line_end_token_in_the_file_changes_nothing(self, tmp_path, blocks,
                                                         name, text, message, line):
        """A stray token at the end of a line is an error on that line; it
        cannot make up for a token missing from the next."""
        path = tmp_path / name
        blocks.write(path, text)
        for parse in (load_mesh, line_parse):
            with pytest.raises(MeshParseError) as exc:
                parse(path)
            assert (exc.value.to_json_dict()["message"], exc.value.detail["line"]) == \
                (message, blocks.line(line))

    @settings(deadline=None, max_examples=300)
    @given(mesh_texts())
    def test_numpy_and_line_readers_agree_on_any_text(self, tmp_path_factory, case):
        """Both readers give bit-identical arrays, or the same error on the
        same line; numpy's reader takes a clean text whole."""
        suffix, clean, text = case
        path = tmp_path_factory.mktemp("text") / ("mesh" + suffix)
        path.write_bytes(text.encode())
        reader = mesh_module._parse_off if suffix == ".off" else mesh_module._parse_obj
        fast = parse_result(path, lambda p: bulk_parse(p, reader) if clean else reader(p))
        assert fast == parse_result(path, lambda p: line_parse(p, reader))

    def test_a_file_cut_short_names_its_last_line(self, tmp_path, blocks):
        verts, faces = icosphere(2)
        path = tmp_path / "cut.off"
        write_off(path, verts, faces)
        lines = path.read_text().splitlines()[:-5] + ["", "# gone"]
        blocks.write(path, "\n".join(lines))
        with pytest.raises(MeshParseError) as exc:
            load_mesh(path)
        assert exc.value.to_json_dict()["message"] == "OFF file ends inside face block"
        assert exc.value.detail["line"] == blocks.line(len(lines) - 2)


def rotated(verts, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return verts @ q.T


ORDER_CODE = """
import hashlib, numpy as np
from specgeom.meshgen import icosphere
from specgeom.mesh import mesh_from_arrays, nested_dissection
q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
verts, faces = icosphere(4)
print(hashlib.sha256(nested_dissection(mesh_from_arrays(verts @ q.T, faces)).tobytes()).hexdigest())
"""


class TestOrdering:
    """The nested-dissection order every factorization of a mesh uses."""

    @pytest.mark.parametrize("verts, faces", [
        (TET_VERTS, TET_FACES),
        icosphere(0),
        icosphere(3),
        (rotated(icosphere(4)[0], 1), icosphere(4)[1]),
        torus_of_revolution(1.0, 0.4, 40, 20),
        (np.vstack([icosphere(2)[0], icosphere(2)[0] + 3.0]),
         np.vstack([icosphere(2)[1], icosphere(2)[1] + 162])),
    ], ids=["tet", "L0", "L3", "rotated-L4", "torus", "two-spheres"])
    def test_is_a_permutation(self, verts, faces):
        order = nested_dissection(mesh_from_arrays(verts, faces))
        assert order.dtype == np.int64
        assert np.array_equal(np.sort(order), np.arange(len(verts)))

    def test_assembly_carries_it(self, ico_mesh, ico_ops):
        assert np.array_equal(ico_ops(3).ordering, nested_dissection(ico_mesh(3)))

    def test_computed_on_first_read_once(self, monkeypatch):
        """Assembly orders nothing, so a pair that is never factored never
        pays for the order; the first read computes it, once."""
        calls = []
        real_order = mesh_module.nested_dissection
        monkeypatch.setattr(mesh_module, "nested_dissection",
                            lambda mesh: calls.append(mesh) or real_order(mesh))
        mesh = mesh_from_arrays(*icosphere(3))
        ops = assemble_operators(mesh)
        assert calls == []
        assert ops.ordering is ops.ordering is mesh.ordering
        assert calls == [mesh]

    def test_bare_pair_keeps_vertex_order(self, ico_ops):
        ops = ico_ops(2)
        bare = SparseOperatorPair(ops.stiffness, ops.mass, 0)
        assert np.array_equal(bare.ordering, np.arange(ops.stiffness.shape[0]))

    def test_small_parts_keep_vertex_order(self):
        verts, faces = icosphere(1)  # 42 vertices: one part
        assert np.array_equal(nested_dissection(mesh_from_arrays(verts, faces)), np.arange(42))

    def test_identical_across_calls_and_processes(self):
        import hashlib

        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        verts, faces = icosphere(4)
        mesh = mesh_from_arrays(verts @ q.T, faces)
        first = nested_dissection(mesh)
        assert np.array_equal(first, nested_dissection(mesh))
        digests = {
            subprocess.run([sys.executable, "-c", ORDER_CODE], capture_output=True,
                           text=True, check=True, timeout=120).stdout.strip()
            for _ in range(2)
        }
        assert digests == {hashlib.sha256(first.tobytes()).hexdigest()}

    def test_power_of_two_scale_keeps_the_order(self):
        verts, faces = icosphere(3)
        order = nested_dissection(mesh_from_arrays(verts, faces))
        for scale in (2.0**490, 2.0**-60):
            assert np.array_equal(nested_dissection(mesh_from_arrays(verts * scale, faces)), order)


class TestRandomSphere:
    def test_closed_outward_and_seeded(self):
        verts, faces = random_sphere(300, 7)
        mesh = mesh_from_arrays(verts, faces)  # validates: closed and oriented
        assert (mesh.n_vertices, mesh.n_faces, mesh.n_components) == (300, 596, 1)
        np.testing.assert_allclose(row_norms(verts), 1.0, rtol=1e-15)
        centroids = verts[faces].mean(axis=1)
        assert np.all(np.einsum("ij,ij->i", mesh.face_normals, centroids) > 0.0)
        again = random_sphere(300, 7)
        assert np.array_equal(again[0], verts) and np.array_equal(again[1], faces)
        assert not np.array_equal(random_sphere(300, 8)[0], verts)


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

    def test_mass_diag_is_computed_once(self, ico_mesh, monkeypatch):
        """The first read takes the diagonal; later reads return that array,
        read-only, since every caller shares it."""
        ops = assemble_operators(ico_mesh(2))
        calls = []
        real = type(ops.mass).diagonal

        def counted(matrix, *args):
            calls.append(matrix)
            return real(matrix, *args)

        monkeypatch.setattr(type(ops.mass), "diagonal", counted)
        first = ops.mass_diag
        assert ops.mass_diag is first and len(calls) == 1
        assert np.array_equal(first, real(ops.mass))
        with pytest.raises(ValueError):
            first[0] = 0.0

    @pytest.mark.parametrize("scale", [1e78, 1e100, 1e150])
    def test_huge_coordinates_assemble_like_the_unit_sphere(self, ico_mesh, ico_ops, scale):
        """Areas up to ~1e300 are representable, so the cross-product norms
        must not square their way to overflow."""
        verts, faces = icosphere(2)
        mesh = mesh_from_arrays(verts * scale, faces)
        assert abs(assemble_operators(mesh).stiffness - ico_ops(2).stiffness).max() < 1e-14
        np.testing.assert_allclose(
            mesh.vertex_area / scale**2, ico_mesh(2).vertex_area, rtol=1e-14)
        np.testing.assert_allclose(mesh.face_normals, ico_mesh(2).face_normals, atol=1e-15)

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
        normals = mesh.face_normals
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

    def test_stacked_fields_match_one_call_per_column(self, ico_mesh):
        mesh = ico_mesh(2)
        fields = np.column_stack(
            [mesh.vertices, np.random.default_rng(0).standard_normal(mesh.n_vertices)])
        grads = face_gradients(mesh, fields)
        assert grads.shape == (mesh.n_faces, 3, 4)
        averaged = vertex_average_from_faces(mesh, grads)
        assert averaged.shape == (mesh.n_vertices, 3, 4)
        for col in range(4):
            grad = face_gradients(mesh, fields[:, col])
            np.testing.assert_allclose(grads[:, :, col], grad, rtol=0, atol=1e-15)
            for c in range(3):
                np.testing.assert_allclose(
                    averaged[:, c, col], vertex_average_from_faces(mesh, grad[:, c]),
                    rtol=0, atol=1e-15)

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

    def test_angle_defects_on_a_sliver_face(self):
        """A face 1e-9 high has a corner angle within 1e-9 of pi, where
        arccos of the cosine is off by ~4e-9.  The reference is
        atan2(|u x v|, u . v) per corner in Python floats."""
        verts = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1e-9, 0.0], [0.5, 0.3, 1.0]]
        faces = [[0, 2, 1], [0, 1, 3], [1, 2, 3], [2, 0, 3]]
        expected = [2.0 * math.pi] * 4
        for face in faces:
            for c in range(3):
                p, a, b = (verts[face[(c + k) % 3]] for k in range(3))
                u = [a[i] - p[i] for i in range(3)]
                v = [b[i] - p[i] for i in range(3)]
                cross = [u[(i + 1) % 3] * v[(i + 2) % 3] - u[(i + 2) % 3] * v[(i + 1) % 3]
                         for i in range(3)]
                expected[face[c]] -= math.atan2(math.hypot(*cross),
                                                sum(x * y for x, y in zip(u, v)))
        defects = angle_defects(mesh_from_arrays(np.array(verts), np.array(faces)))
        np.testing.assert_allclose(defects, expected, rtol=0, atol=1e-14)

    def test_sphere_willmore(self, ico_mesh, ico_ops):
        extr = extrinsic_summary(ico_mesh(4), ico_ops(4))
        assert extr.willmore == pytest.approx(4.0 * math.pi, rel=2e-3)

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
