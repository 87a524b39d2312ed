"""Deterministic JSON/CSV writers with 17-significant-digit floats.

The stdlib json module offers no control over float formatting, and
repr() gives shortest-round-trip strings of varying width; artifacts
want a fixed 17-significant-digit form so that every float round-trips
exactly and repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math


def format_float(x):
    x = float(x)
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {x!r} has no JSON form")
    return format(x, ".17g")


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
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        if all(type(v) is float for v in seq) and all(map(math.isfinite, seq)):
            # the per-item path below, one join for the whole list
            item_pad = pad + "  "
            out.append("[\n" + item_pad)
            out.append((",\n" + item_pad).join([format(x, ".17g") for x in seq]))
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


def dumps(obj):
    out = []
    _render(obj, 0, out)
    out.append("\n")
    return "".join(out)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(obj))


def _cell(c):
    if type(c) is float and math.isfinite(c):
        return format(c, ".17g")
    if isinstance(c, bool):
        return "true" if c else "false"
    if isinstance(c, float):
        return format_float(c)
    return str(c)


def write_csv(path, header, rows):
    """Write rows of cells; floats get the 17-digit treatment."""
    lines = [",".join(header)]
    lines.extend([",".join(map(_cell, row)) for row in rows])
    lines.append("")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
