"""Deterministic JSON/CSV emission.

Every float is printed with 17 significant digits so artifacts round-trip
exactly and reruns are byte-identical.  JSON key order follows insertion
order of the dictionaries, which the producers construct deterministically.
"""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

from .errors import UsageError


def format_float(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise UsageError("cannot serialize non-finite value %r" % x)
    return "%.17g" % x


def _write_json(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        escaped = "".join(
            c if c >= " " else "\\u%04x" % ord(c) for c in escaped
        )
        escaped = escaped.replace("\\u000a", "\\n").replace("\\u0009", "\\t")
        out.append('"%s"' % escaped)
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise UsageError("JSON object keys must be strings, got %r" % (key,))
            _write_json(key, out)
            out.append(": ")
            _write_json(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _write_json(value, out)
        out.append("]")
    else:
        raise UsageError("cannot serialize %r" % type(obj).__name__)


def dumps_json(obj) -> str:
    out: list = []
    _write_json(obj, out)
    out.append("\n")
    return "".join(out)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


# rows whose cells are made and written at a time, so that a long table
# never holds every cell at once: the 9,828 cells of a 351-ratio sweep are
# about 0.5 MiB of strings
CSV_BLOCK_ROWS = 256


def _cells(column) -> list:
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f":
            finite = np.isfinite(column)
            if not finite.all():
                format_float(column[np.argmin(finite)])  # raises its error
            return list(map("%.17g".__mod__, column.tolist()))
        if column.dtype.kind == "b":
            return list(map(("false", "true").__getitem__, column.tolist()))
        if column.dtype.kind == "U":
            return column.tolist()
        column = column.tolist()
    return list(map(_csv_cell, column))


def format_csv(header, columns) -> str:
    """CSV text of ``header`` and one row per entry of the equal-length
    ``columns``, formatted a column at a time: a float array takes
    ``format_float``'s 17 digits after one finiteness check, which raises
    ``format_float``'s error; other columns go cell by cell.  The ``csv``
    module writes the rows, ``CSV_BLOCK_ROWS`` at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for start in range(0, len(columns[0]) if columns else 0, CSV_BLOCK_ROWS):
        block = [column[start:start + CSV_BLOCK_ROWS] for column in columns]
        writer.writerows(zip(*map(_cells, block)))
    return buf.getvalue()


REPORT_COLUMNS = (
    "ineq_id",
    "j",
    "n",
    "spin",
    "lhs",
    "rhs",
    "margin",
    "satisfied",
    "equality",
    "exploratory",
)


def report_csv_rows(reports) -> list:
    """Flatten inequality reports to one CSV row each, fixed columns."""
    rows = []
    for rep in reports:
        rows.append(
            [
                rep.ineq_id,
                rep.params.get("j"),
                rep.params.get("n"),
                rep.params.get("spin"),
                rep.lhs,
                rep.rhs,
                rep.margin,
                rep.satisfied,
                rep.equality,
                rep.exploratory,
            ]
        )
    return rows


def write_vector_sidecar(path, vectors) -> dict:
    """Write ``vectors`` to the binary sidecar of the JSON document at
    ``path`` and return the keys that document records about it.

    The sidecar holds the vector matrix as little-endian 64-bit floats in
    row-major order (one vertex per row, one mode per column).
    """
    sidecar = str(path) + ".vectors.bin"
    mat = np.ascontiguousarray(vectors, dtype="<f8")
    with open(sidecar, "wb") as fh:
        fh.write(mat.tobytes(order="C"))
    return {
        "vectors_shape": list(mat.shape),
        "vectors_file": os.path.basename(sidecar),
        "vectors_dtype": "<f8",
        "vectors_order": "row-major",
    }
