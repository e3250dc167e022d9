"""Output rendering: each command's CSV and JSON come from one field schema.

A schema is an ordered tuple of ``(name, kind)`` fields and a row is a tuple
of values in the same order.  A field whose CSV and JSON names differ is
named by a ``(csv, json)`` pair.  The kind fixes how a value prints in each
form, so the two forms of one output cannot drift apart.
"""
from __future__ import annotations

import csv
import json


def prob(value: float) -> str:
    return f"{float(value):.6f}"


def _alpha_text(value: float) -> str:
    """An alpha_adj names a table, so print text that parses back to the same
    float: six decimals when they round-trip, else ``repr``."""
    text = prob(value)
    return text if float(text) == value else repr(float(value))


def _same(value):
    return value


KINDS = {  # kind: (CSV cell, JSON value)
    "prob": (prob, lambda v: round(v, 6)),  # uncast: numpy rounds its own floats
    "alpha": (_alpha_text, float),
    "score": (lambda v: repr(float(v)), float),  # shortest round-trip text
    "count": (int, int),
    "bool": (lambda v: "true" if v else "false", bool),
    "flag": (int, bool),
    "text": (_same, _same),
    "optional": (lambda v: "" if v is None else v, _same),
}


def _columns(fields, form: int) -> tuple:
    """(names, renderers) of a schema in one form: 0 is CSV, 1 is JSON."""
    names = [name if isinstance(name, str) else name[form] for name, _ in fields]
    return names, [KINDS[kind][form] for _, kind in fields]


def record(fields, row) -> dict:
    """One row as a JSON object."""
    names, renders = _columns(fields, 1)
    return {name: render(v) for name, render, v in zip(names, renders, row)}


def dump(stream, payload) -> None:
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


# json runs its pure-Python encoder whenever indent is set.  With these
# separators its C encoder gives an array of flat records with each record's
# fields already on the lines indent=2 puts them on.
_C_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",\n    ", ": ")).encode


def _dump_records(stream, records: list) -> None:
    """``dump`` of a list of flat, non-empty records, byte for byte.

    json escapes a line end inside a string, so a raw one comes only from a
    separator; no value is itself an object, so a closing brace, a separator
    and an opening brace in a row mark exactly the record boundaries.
    """
    if not records:
        stream.write("[]\n")
        return
    body = _C_ENCODE(records)[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
    stream.write("[\n  {\n    " + body + "\n  }\n]\n")


def write(stream, fields, rows, as_json: bool) -> None:
    """Print ``rows`` as CSV under a header of the field names, or as JSON.

    ``rows`` is a list or iterator of rows, a JSON array; a single tuple is
    one row, a JSON object.
    """
    single = isinstance(rows, tuple)
    names, renders = _columns(fields, int(as_json))
    # rendered a column at a time: one map per field, not a call per row
    columns = zip(*([rows] if single else rows))
    cells = zip(*[map(render, column) for render, column in zip(renders, columns)])
    if as_json:
        records = [dict(zip(names, row)) for row in cells]
        if single:
            dump(stream, records[0])
        else:
            _dump_records(stream, records)
        return
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(cells)
