"""Deterministic serialization: float round-trips, JSON shape, CSV rows."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from specgeom.cli import main
from specgeom.eigensolve import dense_eigenbasis
from specgeom.errors import UsageError
from specgeom.inequalities import evaluate
from specgeom.mesh import SparseOperatorPair
from specgeom.meshgen import icosphere, write_off
from specgeom.models import sphere_laplace_spectrum
from specgeom.serialize import (
    REPORT_COLUMNS,
    dumps_json,
    format_csv,
    format_float,
    report_csv_rows,
    write_vector_sidecar,
)


class TestFloats:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_seventeen_digits_round_trip(self, x):
        assert float(format_float(x)) == x

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(UsageError):
                format_float(bad)


class TestJson:
    def test_insertion_order_and_newline(self):
        text = dumps_json({"b": 1, "a": 2})
        assert text == '{"b": 1, "a": 2}\n'

    def test_nested_and_numpy_types(self):
        doc = {
            "list": [1, 2.5, None, True],
            "arr": np.array([0.5, 1.5]),
            "int64": np.int64(7),
            "f64": np.float64(0.1),
        }
        text = dumps_json(doc)
        parsed = json.loads(text)
        assert parsed["list"] == [1, 2.5, None, True]
        assert parsed["arr"] == [0.5, 1.5]
        assert parsed["int64"] == 7
        assert parsed["f64"] == 0.1

    def test_round_trip_precision(self):
        values = [1.0 / 3.0, math.pi, 2.0**-40, 1e300]
        parsed = json.loads(dumps_json({"v": values}))
        assert parsed["v"] == values

    def test_string_escaping(self):
        parsed = json.loads(dumps_json({"s": 'a"b\\c\n\t'}))
        assert parsed["s"] == 'a"b\\c\n\t'

    @given(st.text(st.sampled_from(['"', "\\", "\n", "\t", "\r", "\x00", "\x1f", " ", "u",
                                    "0", "9", "a", "\u00e9", "\u2028"])))
    def test_any_string_round_trips(self, s):
        """Each character is escaped once, so a string holding the text of
        an escape, such as \\u000a or \\u0009, reads back as written."""
        assert json.loads(dumps_json({"s": s})) == {"s": s}

    @pytest.mark.parametrize("s", ["a\\u000ab", "dir\\u0009x.off", "\\\\n"])
    def test_escape_text_round_trips(self, s):
        assert json.loads(dumps_json({"s": s}))["s"] == s

    def test_escapes_are_short_where_json_has_them(self):
        assert dumps_json(['a"b\\c\n\t\r\x01\u00e9']) == '["a\\"b\\\\c\\n\\t\\u000d\\u0001\u00e9"]\n'

    def test_non_string_keys_rejected(self):
        with pytest.raises(UsageError):
            dumps_json({1: "x"})

    def test_non_finite_rejected(self):
        with pytest.raises(UsageError):
            dumps_json({"x": math.inf})

    def test_output_file_holds_dumps_json(self, tmp_path):
        path = tmp_path / "doc.json"
        assert main(["spectrum", "--model", "sphere", "--radius", "2", "--count", "1",
                     "--output", str(path)]) == 0
        doc = sphere_laplace_spectrum(2, 2.0, 1).to_json_dict()
        doc["values"] = [0.0]
        assert path.read_text() == dumps_json(doc)


# cells the csv module quotes and cells it leaves: letters, separators,
# quotes, newlines, spaces and slashes
CSV_TEXT = st.text(st.sampled_from(["a", "B", ",", '"', "\n", " ", "/"]), max_size=4)
CSV_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 1e-300, -1e-300])


@st.composite
def csv_tables(draw):
    """A header and equal-length columns of every kind ``format_csv``
    takes: float, bool and str arrays, and lists of ints, floats, None and
    str; one-column tables included."""
    rows, width = draw(st.integers(0, 5)), draw(st.integers(1, 4))

    def cells(strategy):
        return draw(st.lists(strategy, min_size=rows, max_size=rows))

    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "bool", "str", "list"]),
                              min_size=width, max_size=width)):
        if kind == "float":
            columns.append(np.array(cells(CSV_FLOATS), dtype=float))
        elif kind == "bool":
            columns.append(np.array(cells(st.booleans()), dtype=bool))
        elif kind == "str":
            columns.append(np.array(cells(CSV_TEXT), dtype=str))
        else:
            columns.append(cells(st.integers() | st.none() | CSV_TEXT | CSV_FLOATS))
    return draw(st.lists(CSV_TEXT, min_size=width, max_size=width)), columns


def csv_module_text(header, columns):
    """The table as the csv module writes it, from cells formatted here:
    floats by ``format_float``, bools as true/false, the rest as given."""
    def cell(value):
        if isinstance(value, bool):
            return "true" if value else "false"
        return format_float(value) if isinstance(value, float) else value

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(zip(*[[cell(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
                           for c in columns]))
    return buf.getvalue()


class TestCsv:
    @given(csv_tables())
    def test_matches_the_csv_module(self, table):
        assert format_csv(*table) == csv_module_text(*table)

    def test_a_lone_empty_cell_is_quoted(self):
        assert format_csv(("",), [[None, "", "a"]]) == '""\n""\n""\na\n'
        assert format_csv(("", ""), [[None], [""]]) == ",\n,\n"

    def test_a_carriage_return_is_always_quoted(self):
        """Python 3.13's csv module quotes a cell holding \\r, and earlier
        versions with a \\n line terminator do not; the text is the same
        on every version."""
        assert format_csv(("a\rb", "c"), [np.array(["x\ry"]), ['"\r']]) == (
            '"a\rb",c\n"x\ry","""\r"\n')

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("as_array", [True, False])
    def test_a_non_finite_float_raises_format_floats_error(self, bad, as_array):
        column = [1.0, bad, 2.0]
        with pytest.raises(UsageError) as want:
            format_float(bad)
        with pytest.raises(UsageError) as got:
            format_csv(("x", "y"), [np.array(column) if as_array else column, [1, 2, 3]])
        assert str(got.value) == str(want.value)

    def test_booleans_lowercase(self):
        text = format_csv(("a", "ok"), [[1.5, 2.0], [True, False]])
        lines = text.splitlines()
        assert lines[0] == "a,ok"
        assert lines[1] == "1.5,true"
        assert lines[2] == "2,false"

    def test_unix_line_endings(self):
        text = format_csv(("x",), [[1]])
        assert "\r" not in text
        assert text.endswith("\n")

    def test_report_rows(self):
        spec = sphere_laplace_spectrum(2, 1.0, 10)
        report = evaluate("main", spec, j=1, n=2, h_sq=1.0, kappa=0.0)
        rows = report_csv_rows([report])
        assert len(rows) == 1
        row = dict(zip(REPORT_COLUMNS, rows[0]))
        assert row["ineq_id"] == "main"
        assert row["j"] == 1
        assert row["satisfied"] is True


class TestEigenbasisFiles:
    def test_vector_sidecar_round_trip(self, tmp_path):
        import scipy.sparse as sp

        rng = np.random.default_rng(2)
        a = rng.standard_normal((12, 12))
        ops = SparseOperatorPair(
            stiffness=sp.csr_matrix(a @ a.T),
            mass=sp.identity(12, format="csr"),
            clamp_count=0,
        )
        basis = dense_eigenbasis(ops, 4)
        path = tmp_path / "basis.json"
        doc = basis.to_json_dict()
        doc.update(write_vector_sidecar(path, basis.vectors))
        path.write_text(dumps_json(doc))
        doc = json.loads(path.read_text())
        assert doc["size"] == 4
        assert doc["vectors_dtype"] == "<f8"
        vectors = np.fromfile(tmp_path / doc["vectors_file"], dtype=doc["vectors_dtype"])
        np.testing.assert_array_equal(vectors.reshape(doc["vectors_shape"]), basis.vectors)

    def test_values_only_by_default(self, tmp_path):
        mesh = tmp_path / "ico1.off"
        write_off(mesh, *icosphere(1))
        path = tmp_path / "vals.json"
        assert main(["spectrum", "--mesh", str(mesh), "--count", "3",
                     "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert "vectors_file" not in doc
        assert not (tmp_path / "vals.json.vectors.bin").exists()
