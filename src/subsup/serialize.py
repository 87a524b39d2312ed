"""Deterministic JSON/CSV writers with 17-significant-digit floats.

The stdlib json module offers no control over float formatting, and
repr() gives shortest-round-trip strings of varying width; artifacts
want a fixed 17-significant-digit form so that every float round-trips
exactly and repeated runs are byte-identical.

Lists of floats and float columns are formatted CHUNK values at a time
through one %-template per chunk: '%.17g' % x is format(x, '.17g') for
every finite double, and one % call does the work of a chunk's format
calls.  A FloatColumn keeps such strings, so that one float array can
go into a JSON list and a CSV column with one formatting pass.  CSVs
are written by columns whose types the caller knows: FloatColumns for
floats, ints or strs for the rest.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import cached_property

import numpy as np

CHUNK = 4096


def format_float(x):
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} has no JSON form")
    return format(x, ".17g")


def _is_finite_floats(seq):
    return all(type(v) is float for v in seq) and all(map(math.isfinite, seq))


def _join_floats(values, sep):
    """sep.join(format(x, '.17g') for x in values), one template per chunk."""
    if len(values) > CHUNK:
        chunks = (values[i : i + CHUNK] for i in range(0, len(values), CHUNK))
        return sep.join(_join_floats(chunk, sep) for chunk in chunks)
    return sep.join(["%.17g"] * len(values)) % tuple(values)


class FloatColumn:
    """A float array whose %.17g strings are formatted once, on first use.

    write_json renders it as the JSON list of its values, and write_csv
    as a column of the same strings, which lines() yields one by one:
    the bytes are those of the array's values as a float list.  The
    strings are kept CHUNK at a time, joined by newlines.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    @cached_property
    def chunks(self):
        # one check for the column: tolist() of a float array gives floats
        values = self.values
        if not np.isfinite(values).all():
            raise ValueError("non-finite value has no JSON form")
        return [
            _join_floats(values[i : i + CHUNK].tolist(), "\n")
            for i in range(0, len(values), CHUNK)
        ]

    def lines(self):
        for chunk in self.chunks:
            yield from chunk.split("\n")


def _render(obj, indent, out):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}  {json.dumps(str(key))}: ")
            _render(value, indent + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, FloatColumn):
        if not obj.chunks:
            out.append("[]")
            return
        sep = ",\n" + pad + "  "
        out.append("[\n" + pad + "  ")
        out.append(sep.join(chunk.replace("\n", sep) for chunk in obj.chunks))
        out.append("\n" + pad + "]")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if _is_finite_floats(seq):
            # the bytes of the per-item path below, one template per chunk
            item_pad = pad + "  "
            out.append("[\n" + item_pad)
            out.append(_join_floats(seq, ",\n" + item_pad))
            out.append("\n" + pad + "]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad + "  ")
            _render(value, indent + 1, out)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(pad + "]")
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


def _pieces(obj):
    out = []
    _render(obj, 0, out)
    out.append("\n")
    return out


def dumps(obj):
    return "".join(_pieces(obj))


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(_pieces(obj))


def write_csv(path, header, columns):
    """Write equal-length columns, CHUNK rows through one template.

    A FloatColumn contributes its %.17g strings; any other column (ints
    or strs) is written with str().
    """
    cells = [c.lines() if isinstance(c, FloatColumn) else c for c in columns]
    rows = zip(*cells, strict=True)
    line = ",".join(["%s"] * len(cells)) + "\n"
    text = [",".join(header) + "\n"]
    while chunk := list(itertools.islice(rows, CHUNK)):
        text.append((line * len(chunk)) % tuple(itertools.chain.from_iterable(chunk)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(text)
