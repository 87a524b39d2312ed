import json

import numpy as np
import pytest

from subsup.serialize import dumps, format_float, write_csv, write_json


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
        write_csv(str(path), ["i", "v", "ok"], [[0, 0.25, True], [1, 0.5, False]])
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "i,v,ok"
        assert lines[1] == "0,0.25,true"
        assert lines[2] == "1,0.5,false"


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
        rows = [(i, x, True, x) for i, x in enumerate(FLOATS)]
        fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
        write_csv(str(fast), ["i", "x", "ok", "y"], rows)
        write_csv(str(slow), ["i", "x", "ok", "y"], [per_item(list(r)) for r in rows])
        assert fast.read_bytes() == slow.read_bytes()
        write_csv(str(fast), ["i"], [])
        assert fast.read_bytes() == b"i\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_in_float_list_raises(self, bad, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            dumps({"u": [0.5, bad, 1.0]})
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(str(tmp_path / "o.csv"), ["x"], [(0.5,), (bad,)])
