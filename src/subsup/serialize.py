"""Deterministic JSON/CSV writers with 17-significant-digit floats.

The stdlib json module offers no control over float formatting, and
repr() gives shortest-round-trip strings of varying width; artifacts
want a fixed 17-significant-digit form so that every float round-trips
exactly and repeated runs are byte-identical.

Floats are formatted CHUNK values at a time through one %-template per
chunk: '%.17g' % x is format(x, '.17g') for every finite double.  A
FloatColumn formats each distinct value of a float array once, for a
JSON list and a CSV column alike; CSVs are written by columns whose
types the caller knows, CHUNK rows at a time as the file is written.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

CHUNK = 1024


def format_float(x):
    if not math.isfinite(x := float(x)):
        raise ValueError(f"non-finite value {x!r} has no JSON form")
    return format(x, ".17g")


def _join_floats(values, sep):
    """sep.join(format(x, '.17g') for x in values), one template per chunk."""
    if len(values) > CHUNK:
        chunks = (values[i : i + CHUNK] for i in range(0, len(values), CHUNK))
        return sep.join(_join_floats(chunk, sep) for chunk in chunks)
    return sep.join(["%.17g"] * len(values)) % tuple(values)


class FloatColumn:
    """A float array and its %.17g strings, formatted once, on first use.

    chunks holds the strings in row-major order, CHUNK at a time, for
    write_json's list and write_csv's column alike.  Each distinct bit
    pattern is formatted once (-0.0 and 0.0 differ in bits as in text), and
    a chunk is the list of its entries' strings, shared among repeats; in a
    column where nothing repeats, a chunk is one newline-joined string.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    @cached_property
    def chunks(self):
        values = self.values.ravel()
        if not np.isfinite(values).all():
            raise ValueError("non-finite value has no JSON form")
        distinct = np.sort(values.view(np.int64))
        distinct = np.concatenate(
            (distinct[:1], distinct[1:][distinct[1:] != distinct[:-1]])
        )
        starts = range(0, values.size, CHUNK)
        if distinct.size == values.size:  # one string per chunk, not per entry
            return [_join_floats(values[i : i + CHUNK].tolist(), "\n") for i in starts]
        text = _join_floats(distinct.view(float).tolist(), "\n").split("\n")
        text = np.array(text, dtype=object)
        index = np.searchsorted(distinct, values.view(np.int64))
        return [text[index[i : i + CHUNK]].tolist() for i in starts]


def _cells(column):
    """The column's cells as text, CHUNK at a time; a FloatColumn is formatted now."""
    if isinstance(column, FloatColumn):
        return (c.splitlines() if isinstance(c, str) else c for c in column.chunks)
    return (map(str, column[i : i + CHUNK]) for i in range(0, len(column), CHUNK))


def _list(pieces, pad, out):
    """Append the JSON list at pad's depth whose items, one to a line, make
    the non-empty pieces, each one or more items.

    The pieces are written as they are, so a long float list is no one
    string, nor one encoding of it, at the writer's memory peak.
    """
    sep = ",\n" + pad + "  "
    body = [s for piece in pieces if piece for s in (sep, piece)][1:]
    out.extend(("[\n" + pad + "  ", *body, "\n" + pad + "]") if body else ("[]",))


def _rows(array, pad):
    """The body of an (n, k) float or int array's JSON list: one row template."""
    if array.dtype.kind == "f":
        item, items = "%s", [s for cells in _cells(FloatColumn(array)) for s in cells]
    else:
        item, items = "%d", array.ravel().tolist()
    inner = pad + "  "
    row = "[\n" + inner + "  " + (",\n" + inner + "  ").join([item] * array.shape[1])
    return (",\n" + inner).join([row + "\n" + inner + "]"] * len(array)) % tuple(items)


def _render(obj, indent, out):
    pad, sep = "  " * indent, ",\n" + "  " * (indent + 1)
    if isinstance(obj, dict) and not obj:
        out.append("{}")
    elif isinstance(obj, dict):
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _render(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, FloatColumn):
        _list([sep.join(cells) for cells in _cells(obj)], pad, out)
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind in "fi":
        _list([_rows(obj, pad)], pad, out)
    elif isinstance(obj, (list, tuple)):
        _list(["".join(_pieces(v, indent + 1)) for v in obj], pad, out)
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _pieces(obj, indent=0):
    out = []
    _render(obj, indent, out)
    return out


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines([*_pieces(obj), "\n"])


def write_csv(path, header, columns):
    """Write equal-length columns, CHUNK rows at a time.

    A FloatColumn gives its %.17g strings, any other column str() of its
    cells.  Floats are formatted, and lengths checked, before the open.
    """
    sizes = {len(c.values if isinstance(c, FloatColumn) else c) for c in columns}
    if len(sizes) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(sizes)}")
    cells = [_cells(c) for c in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for rows in zip(*cells):
            fh.write("\n".join(map(",".join, zip(*rows))) + "\n")
