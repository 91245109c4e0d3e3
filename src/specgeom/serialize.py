"""Deterministic JSON/CSV emission.

Every float is printed with 17 significant digits so artifacts round-trip
exactly and reruns are byte-identical.  JSON key order follows insertion
order of the dictionaries, which the producers construct deterministically.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .errors import UsageError


# every character a JSON string escapes, each escaped once: the quote, the
# backslash and the control characters, newline and tab by their short forms
JSON_ESCAPES = {**{c: "\\u%04x" % c for c in range(32)},
                ord("\n"): "\\n", ord("\t"): "\\t", ord("\\"): "\\\\", ord('"'): '\\"'}


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
        out.append('"%s"' % obj.translate(JSON_ESCAPES))
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


CSV_SPECIAL = frozenset(',"\n\r')  # "\r" too, as Python 3.13's csv module


def _quoted(cell: str, alone: bool) -> str:
    """``cell`` as the csv module's minimal quoting writes it: quoted, each
    quote doubled, when it holds a ``CSV_SPECIAL`` character or is empty
    and ``alone`` in its row."""
    if CSV_SPECIAL.isdisjoint(cell) and (cell or not alone):
        return cell
    return '"%s"' % cell.replace('"', '""')


def format_csv(header, columns) -> str:
    """CSV text of ``header`` and one row per entry of the equal-length
    ``columns``, each row by one ``%`` template.  A float array is a
    ``%.17g`` slot after one finiteness check, which raises
    ``format_float``'s error; a bool array gives false/true, a str array its
    strings, any other column ``_csv_cell``'s cells, and each distinct cell
    is quoted once, as the csv module quotes it."""
    slots, cells = [], []
    for column in columns:
        kind = column.dtype.kind if isinstance(column, np.ndarray) else None
        if kind == "f":
            finite = np.isfinite(column)
            if not finite.all():
                format_float(column[np.argmin(finite)])  # raises its error
            cells.append(column.tolist())
        else:
            text = column.tolist() if kind == "U" else list(map(
                ("false", "true").__getitem__ if kind == "b" else _csv_cell,
                column.tolist() if kind else column))
            quoted = {cell: _quoted(cell, len(columns) == 1) for cell in set(text)}
            cells.append(list(map(quoted.__getitem__, text)))
        slots.append("%.17g" if kind == "f" else "%s")
    template = ",".join(slots) + "\n"
    first = ",".join(_quoted(name, len(header) == 1) for name in header) + "\n"
    return first + "".join(map(template.__mod__, zip(*cells)))


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
