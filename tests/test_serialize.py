"""Deterministic serialization: float round-trips, JSON shape, CSV rows."""

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
    read_vector_sidecar,
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


class TestCsv:
    def test_booleans_lowercase(self):
        text = format_csv(("a", "ok"), [[1.5, True], [2.0, False]])
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
        vectors = read_vector_sidecar(path, doc)
        np.testing.assert_array_equal(vectors, basis.vectors)

    def test_values_only_by_default(self, tmp_path):
        mesh = tmp_path / "ico1.off"
        write_off(mesh, *icosphere(1))
        path = tmp_path / "vals.json"
        assert main(["spectrum", "--mesh", str(mesh), "--count", "3",
                     "--output", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert "vectors_file" not in doc
        assert not (tmp_path / "vals.json.vectors.bin").exists()
