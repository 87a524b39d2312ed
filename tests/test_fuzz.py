"""Property tests: `subsup check` and `subsup solve` on mutated scenarios.

Each example starts from a valid document (a small flat torus or a
small icosphere), applies one to three mutations (drop a key or list
entry, or replace a value with one of another type, a non-finite
number or an out-of-range number) and runs `check` or `solve` on it.
Whatever the document, main() must return 0, 1 or 2 and must not
raise.  The values that set the domain size stay small so that no
example builds a large mesh, and `solve` runs at most 20 steps.
"""

import copy
import json

from hypothesis import given, settings, strategies as st

from subsup.cli import main

from tests.conftest import base_torus_doc

NON_FINITE = [float("nan"), float("inf"), float("-inf")]
NUMBERS = st.one_of(
    st.sampled_from(NON_FINITE + [0, -1, 0.0, -0.5, 1e-300, -1e300, 1e300, 2.5]),
    st.integers(-5, 10),
    st.floats(-1e6, 1e6),
)
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from(["", "x", "1/(x-x)", "2 +* 3", "0.5", "power", "table"]),
    st.just([]),
    st.just([1, 2]),
    st.just({}),
    st.just({"kind": "power"}),
)
# values that set the vertex count stay small: subdivisions, grid cells,
# and whatever replaces a [cells, length] pair or the list of them
SIZE_NUMBERS = st.one_of(
    st.integers(-2, 3), st.sampled_from(NON_FINITE + [0.5, -1.0, 2.0])
)
SMALL_LISTS = st.lists(st.one_of(SIZE_NUMBERS, JUNK), max_size=3)


def base_sphere_doc():
    doc = base_torus_doc()
    doc["domain"] = {"kind": "icosphere", "subdivisions": 1, "radius": 1.0}
    doc["coefficients"]["a"] = "2+0.5*z"
    doc["solver"] = {"tol": 1e-9, "max_steps": 500}
    return doc


def small_torus_doc():
    doc = base_torus_doc()
    doc["domain"]["dims"] = [[4, 1.0], [4, 1.0], [4, 1.0]]
    return doc


def locations(node, path=()):
    """Every path to a value inside the document, the root included."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from locations(child, path + (key,))


def sets_size(path):
    if path[-1:] == ("subdivisions",):
        return True
    # domain.dims, one of its pairs, or the cell count of a pair
    return path[:2] == ("domain", "dims") and (len(path) < 4 or path[3] == 0)


def replacement(data, path):
    if sets_size(path):
        value = data.draw(st.one_of(JUNK, SIZE_NUMBERS, SMALL_LISTS))
    else:
        value = data.draw(st.one_of(JUNK, NUMBERS))
    return copy.deepcopy(value)  # later mutations must not edit the strategy's object


def mutate(data, doc):
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path = data.draw(st.sampled_from(list(locations(doc))), label="path")
        if path and data.draw(st.booleans(), label="drop"):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
            continue
        value = replacement(data, path)
        if not path:
            return value
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    return doc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_check_exits_cleanly_on_mutated_scenarios(data, tmp_path_factory):
    base = data.draw(st.sampled_from([small_torus_doc, base_sphere_doc]), label="base")
    doc = mutate(data, copy.deepcopy(base()))
    path = tmp_path_factory.getbasetemp() / "fuzz_scenario.json"
    path.write_text(json.dumps(doc))  # non-finite numbers become NaN/Infinity
    assert main(["check", str(path)]) in (0, 1, 2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_solve_exits_cleanly_on_mutated_scenarios(data, tmp_path_factory):
    doc = data.draw(st.sampled_from([small_torus_doc, base_sphere_doc]), label="base")()
    if doc["domain"]["kind"] == "icosphere":
        # 0-2: the exact coarse solve alone; 3: one multigrid level above it
        doc["domain"]["subdivisions"] = data.draw(st.integers(0, 3), label="subdivisions")
    doc = mutate(data, doc)
    work = tmp_path_factory.mktemp("fuzz_solve")
    path = work / "scenario.json"
    path.write_text(json.dumps(doc))
    steps = data.draw(st.integers(1, 20), label="max_steps")
    argv = ["solve", str(path), "--out", str(work / "run"), "--max-steps", str(steps)]
    assert main(argv) in (0, 1, 2)
