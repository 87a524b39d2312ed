import json
import os
import tempfile

import numpy as np
import pytest

from subsup import serialize
from subsup.serialize import CHUNK, FloatColumn, format_float, write_csv, write_json


def dumps(obj):
    """write_json's text for obj, read back from a temporary file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        write_json(path, obj)
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()


class TestFormatFloat:
    def test_round_trips_exactly(self):
        for x in (0.1, 1.0 / 3.0, 1e-300, 6.283185307179586, -0.0, 2.0**-52):
            assert float(format_float(x)) == x

    def test_plain_values_stay_short(self):
        assert format_float(1.0) == "1"
        assert format_float(0.5) == "0.5"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            format_float(float("nan"))
        with pytest.raises(ValueError):
            format_float(float("inf"))


class TestDumps:
    def test_valid_json(self):
        doc = {"a": 1, "b": [0.1, True, None, "text"], "c": {"d": False}}
        assert json.loads(dumps(doc)) == doc

    def test_deterministic_and_order_preserving(self):
        doc = {"z": 1, "a": 2}
        out = dumps(doc)
        assert out == dumps({"z": 1, "a": 2})
        assert out.index('"z"') < out.index('"a"')
        assert out.endswith("\n")

    def test_bools_not_rendered_as_ints(self):
        assert '"flag": true' in dumps({"flag": True})

    def test_float_precision(self):
        text = dumps({"x": 0.012345678901234567})
        assert json.loads(text)["x"] == 0.012345678901234567


class TestWriters:
    def test_write_json_newlines(self, tmp_path):
        path = tmp_path / "o.json"
        write_json(str(path), {"x": 1})
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_write_csv(self, tmp_path):
        path = tmp_path / "o.csv"
        columns = [range(2), FloatColumn(np.array([0.25, 0.5])), ["lower", "upper"]]
        write_csv(str(path), ["i", "v", "seq"], columns)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "i,v,seq"
        assert lines[1] == "0,0.25,lower"
        assert lines[2] == "1,0.5,upper"


def per_item(obj):
    """The same document with every float as np.float64.

    np.float64 is a float subclass, so it renders through the per-item
    path that lists of exact floats skip.
    """
    if isinstance(obj, dict):
        return {k: per_item(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [per_item(v) for v in obj]
    if type(obj) is float:
        return np.float64(obj)
    return obj


FLOATS = [-0.0, 1e-300, 2.0**-52, 0.1, 1.0 / 3.0, -1e300, 5e-324, 3.0, -2.5]


class TestFloatListFastPath:
    @pytest.mark.parametrize(
        "doc",
        [
            FLOATS,
            {"u": FLOATS, "v": [], "w": [[0.5, -0.0], [], [1e-300]]},
            {"mixed": [1, True, 0.5, False, 2.0, None, -3], "empty": []},
            [[], [True], [0], [1.0]],
        ],
    )
    def test_json_matches_per_item_path(self, doc):
        assert dumps(doc) == dumps(per_item(doc))
        assert json.loads(dumps(doc)) == doc

    def test_ints_and_bools_keep_their_form(self):
        assert dumps([True, 1, 1.0]) == "[\n  true,\n  1,\n  1\n]\n"

    def test_csv_matches_per_item_path(self, tmp_path):
        column = FloatColumn(np.array(FLOATS))
        rows = [(i, x, x) for i, x in enumerate(FLOATS)]
        path = tmp_path / "o.csv"
        write_csv(str(path), ["i", "x", "y"], [range(len(FLOATS)), column, column])
        assert path.read_bytes() == reference_csv(["i", "x", "y"], rows)
        write_csv(str(path), ["i"], [range(0)])
        assert path.read_bytes() == b"i\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_in_float_list_raises(self, bad, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"u": [0.5, bad, 1.0]})
        column = FloatColumn(np.array([0.5, bad]))
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(str(tmp_path / "o.csv"), ["x"], [column])


def reference_cell(c):
    """One CSV cell as the per-item writer formats it."""
    return format_float(c) if isinstance(c, float) else str(c)


def reference_csv(header, rows):
    lines = [",".join(header)] + [",".join(map(reference_cell, r)) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def chunk_floats(length):
    """length floats cycling through edge cases and random values."""
    special = [-0.0, 5e-324, 1e16, 0.1, -1e300, 2.0**-1074 * 3, 1.0 / 3.0, 1e-300]
    rng = np.random.default_rng(length)
    scales = 10.0 ** rng.integers(-20, 20, length)
    values = (rng.standard_normal(length) * scales).tolist()
    for i in range(0, length, 7):
        values[i] = special[(i // 7) % len(special)]
    return values


# around one chunk and around four, where a column spans several
LENGTHS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1]


class TestChunkedWriters:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_json_list_matches_per_item_format(self, length):
        values = chunk_floats(length)
        items = ",\n    ".join(format(x, ".17g") for x in values)
        expected = '{\n  "u": ' + (f"[\n    {items}\n  ]" if values else "[]") + "\n}\n"
        assert dumps({"u": values}) == expected

    def test_write_json_writes_the_dumps_bytes(self, tmp_path):
        # long float lists between and after short pieces, against the
        # per-item format written out by hand
        values = chunk_floats(CHUNK + 1)
        doc = {"u": values, "flag": True, "w": values[:5], "v": values, "n": 3}
        path = tmp_path / "o.json"
        write_json(str(path), doc)

        def items(xs):
            return "[\n    " + ",\n    ".join(format(x, ".17g") for x in xs) + "\n  ]"

        expected = (
            f'{{\n  "u": {items(values)},\n  "flag": true,\n'
            f'  "w": {items(values[:5])},\n  "v": {items(values)},\n  "n": 3\n}}\n'
        )
        assert path.read_bytes() == expected.encode()

    @pytest.mark.parametrize("length", LENGTHS)
    def test_csv_columns_match_per_item_format(self, length, tmp_path):
        values = chunk_floats(length)
        rows = list(zip(range(length), values, reversed(values)))
        u, w = FloatColumn(np.array(values)), FloatColumn(np.array(values[::-1]))
        columns = [range(length), u, w]
        path = tmp_path / "o.csv"
        write_csv(str(path), ["vertex", "u", "w"], columns)
        assert path.read_bytes() == reference_csv(["vertex", "u", "w"], rows)

    @pytest.mark.parametrize("length", LENGTHS)
    def test_mixed_columns_keep_their_bytes(self, length, tmp_path):
        # trace.csv: int step, str side, float columns
        values = chunk_floats(length)
        sides = ("lower", "upper")
        rows = [(k // 2, sides[k % 2], x, -x) for k, x in enumerate(values)]
        step, seq = [r[0] for r in rows], [r[1] for r in rows]
        x = np.array(values)
        header = ["step", "seq", "x", "y"]
        path = tmp_path / "o.csv"
        write_csv(str(path), header, [step, seq, FloatColumn(x), FloatColumn(-x)])
        assert path.read_bytes() == reference_csv(header, rows)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_past_the_first_chunk_raises(self, bad, tmp_path):
        values = chunk_floats(CHUNK + 1)
        values[CHUNK] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"u": values})
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(str(tmp_path / "o.csv"), ["x"], [FloatColumn(np.array(values))])

    @pytest.mark.parametrize("length", LENGTHS)
    def test_float_column_writes_the_float_list_bytes(self, length, tmp_path):
        values = chunk_floats(length)
        column = FloatColumn(np.array(values))
        doc = {"u": values, "n": [{"v": values}]}
        assert dumps({"u": column, "n": [{"v": column}]}) == dumps(doc)
        path = tmp_path / "o.csv"
        write_csv(str(path), ["vertex", "u", "u"], [range(length), column, column])
        expected = list(zip(range(length), values, values))
        assert path.read_bytes() == reference_csv(["vertex", "u", "u"], expected)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_float_column_refuses_non_finite(self, bad):
        values = np.array(chunk_floats(CHUNK + 1))
        values[CHUNK] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"u": FloatColumn(values)})

    def test_columns_of_unequal_length_are_refused(self, tmp_path):
        path = str(tmp_path / "o.csv")
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], [range(2), FloatColumn(np.array([0.5]))])
        with pytest.raises(ValueError):
            write_csv(path, ["a", "b"], [range(1), ["lower", "upper"]])

    def test_percent_template_is_the_17_digit_format(self):
        values = chunk_floats(CHUNK) + [-0.0, 5e-324, 2.2250738585072014e-308, 1e16]
        assert ["%.17g" % x for x in values] == [format(x, ".17g") for x in values]


@pytest.fixture
def formatted(monkeypatch):
    """The lists of floats that reach _join_floats, one per call."""
    calls = []
    join = serialize._join_floats

    def spy(values, sep):
        calls.append(list(values))
        return join(values, sep)

    monkeypatch.setattr(serialize, "_join_floats", spy)
    return calls


def tiled(length):
    """length floats cycling through 13 chunk_floats values, -0.0 and 0.0."""
    base = chunk_floats(13) + [0.0, -0.0]
    return [base[i % len(base)] for i in range(length)]


class TestRepeatedValues:
    def test_a_constant_column_formats_one_value(self, formatted, tmp_path):
        column = FloatColumn(np.full(10_000, 0.1))
        write_csv(str(tmp_path / "o.csv"), ["u"], [column])
        text = dumps({"u": column})
        assert formatted == [[0.1]]
        assert text == dumps({"u": [0.1] * 10_000})

    @pytest.mark.parametrize("length", LENGTHS)
    def test_repeats_write_the_per_item_bytes(self, length, tmp_path):
        values = tiled(length)
        column = FloatColumn(np.array(values))
        assert dumps({"u": column}) == dumps(per_item({"u": values}))
        path = tmp_path / "o.csv"
        write_csv(str(path), ["vertex", "u"], [range(length), column])
        expected = reference_csv(["vertex", "u"], list(zip(range(length), values)))
        assert path.read_bytes() == expected

    def test_repeated_and_in_place_paths_write_the_same_bytes(self, formatted, tmp_path):
        # distinct values, -0.0 and 0.0 among them, past one CHUNK
        values = list(dict.fromkeys(chunk_floats(2 * CHUNK))) + [0.0]
        assert len(values) > CHUNK
        once = FloatColumn(np.array(values))
        twice = FloatColumn(np.array(values + values))
        write_csv(str(tmp_path / "once.csv"), ["u"], [once])
        # nothing repeats: formatted in place, a chunk at a time, in order
        assert formatted == [values[:CHUNK], values[CHUNK:]]
        formatted.clear()
        write_csv(str(tmp_path / "twice.csv"), ["u"], [twice])
        # each distinct value once, in the order of its bits
        assert formatted[0] == sorted(values, key=lambda x: np.float64(x).view(np.int64))
        body = (tmp_path / "once.csv").read_bytes()[len(b"u\n") :]
        assert (tmp_path / "twice.csv").read_bytes() == b"u\n" + body + body
        assert dumps({"u": twice}) == dumps({"u": values + values})


class TestArrays:
    @pytest.mark.parametrize("repeats", [True, False])
    @pytest.mark.parametrize("rows", [0, 1, CHUNK + 1, 4 * CHUNK + 1])
    def test_rows_match_the_per_item_rendering(self, rows, repeats):
        # with repeats the strings are shared; without, split from chunks
        rng = np.random.default_rng(rows)
        values = tiled(3 * rows) if repeats else rng.random(3 * rows)
        coordinates = np.array(values).reshape(rows, 3)
        faces = np.arange(3 * rows, dtype=np.int64).reshape(rows, 3)
        doc = {"coordinates": coordinates, "faces": faces}
        slow = {
            "coordinates": [[np.float64(c) for c in row] for row in coordinates.tolist()],
            "faces": faces.tolist(),
        }
        assert dumps(doc) == dumps(slow)

    def test_one_dimensional_arrays_need_a_float_column(self):
        with pytest.raises(TypeError):
            dumps({"u": np.zeros(3)})
