"""Property tests: `subsup check` and `subsup solve` on mutated scenarios.

Each example starts from a valid document (a small flat torus or a
small icosphere), applies one to three mutations (drop a key or list
entry, or replace a value with one of another type, a non-finite
number or an out-of-range number) and runs `check` or `solve` on it.
Whatever the document, main() must return 0, 1 or 2 and must not
raise.  The values that set the domain size stay small so that no
example builds a large mesh, and `solve` runs at most 20 steps.
Malformed nonlinearity tables (a short row, an extra or empty or text
cell, a header alone) must make `check` exit 2 with one error line, and
so must a broken OFF mesh (an unused vertex, a non-finite coordinate, a
face index out of range, a quad face, a cut-off file, a face collapsed
to zero area).  The α1 growth check's verdict on random power laws
(p in (0, 8]) and random non-decreasing tables must match a dense
reference, also where t^p overflows before t_max.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subsup import ScalarNonlinearity, check_alpha1
from subsup.cli import main

from tests.conftest import base_torus_doc
from tests.test_geometry import TETRA_FACES, TETRA_VERTICES

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


@pytest.mark.parametrize("base", [small_torus_doc, base_sphere_doc])
def test_base_documents_pass_check(base, tmp_path):
    # the unmutated documents are valid, so a mutation is what an example tests
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base()))
    assert main(["check", str(path)]) == 0


TABLE_ROWS = ["0,0", "1,0.25", "2,0.5"]
# each replaces one data row of TABLE_ROWS
ROW_MUTATIONS = {
    "short_row": lambda row: row.split(",")[0],
    "extra_cell": lambda row: row + ",9",
    "empty_cell": lambda row: row.split(",")[0] + ",",
    "text_cell": lambda row: row.split(",")[0] + ",x",
}
MALFORMED_TABLES = {"header_only": []} | {
    f"{name}_{i}": TABLE_ROWS[:i] + [change(TABLE_ROWS[i])] + TABLE_ROWS[i + 1 :]
    for name, change in ROW_MUTATIONS.items()
    for i in range(len(TABLE_ROWS))
}


@pytest.mark.parametrize("case", sorted(MALFORMED_TABLES))
def test_malformed_table_exits_2(case, tmp_path, capsys):
    (tmp_path / "h.csv").write_text("\n".join(["t,value", *MALFORMED_TABLES[case]]))
    doc = small_torus_doc()
    doc["nonlinearity"]["H"] = {"kind": "table", "path": "h.csv"}
    doc["nonlinearity"]["q"] = 0.5
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


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


def off_tokens(vertices, faces):
    tokens = ["OFF", str(len(vertices)), str(len(faces)), "0"]
    for v in vertices:
        tokens += [str(c) for c in v]
    for f in faces:
        tokens += [str(len(f))] + [str(i) for i in f]
    return tokens


def broken_off(data):
    """The tetrahedron's OFF tokens with one fault drawn into them."""
    vertices = [list(v) for v in TETRA_VERTICES]
    faces = [list(f) for f in TETRA_FACES]
    fault = data.draw(
        st.sampled_from(
            ["unused_vertex", "non_finite", "index_out_of_range", "quad_face",
             "truncated", "zero_area"]
        ),
        label="fault",
    )
    vertex = data.draw(st.integers(0, 3), label="vertex")
    face = data.draw(st.integers(0, 3), label="face")
    if fault == "unused_vertex":
        vertices.append(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=3)))
    elif fault == "non_finite":
        vertices[vertex][data.draw(st.integers(0, 2))] = data.draw(
            st.sampled_from(NON_FINITE)
        )
    elif fault == "index_out_of_range":
        faces[face][data.draw(st.integers(0, 2))] = data.draw(
            st.sampled_from([-1, 4, 10**6])
        )
    elif fault == "quad_face":
        faces[face].append(next(i for i in range(4) if i not in faces[face]))
    elif fault == "zero_area":
        # the vertex moves onto a neighbour, and the faces they share collapse
        vertices[vertex] = list(vertices[(vertex + 1) % 4])
    tokens = off_tokens(vertices, faces)
    if fault == "truncated":
        tokens = tokens[: data.draw(st.integers(0, len(tokens) - 1), label="kept")]
    return fault, " ".join(tokens) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_check_exits_2_on_broken_off_meshes(data, tmp_path_factory):
    fault, text = broken_off(data)
    work = tmp_path_factory.mktemp("fuzz_off")
    (work / "mesh.off").write_text(text)
    doc = base_torus_doc()
    doc["domain"] = {"kind": "off", "path": "mesh.off"}
    (work / "scenario.json").write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(work / "scenario.json")])
    assert code == 2, (fault, text)
    assert out.getvalue() == ""
    assert len(err.getvalue().splitlines()) == 1


# α1 against a dense reference.  The reference evaluates G's clauses at
# 10^5 points of [-1, t_max] (even steps on [-1, 0] and [0, t_max], and
# geometric ones up to t_max) plus the analytic points where G - t^b
# peaks; where t^p or t^b overflows it compares p ln t with b ln t.
SLACK = 1e-12
T_MAX = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([1e40, 1e62, 1e300]),  # past 1.3e38, t^8 overflows; past 4.5e61, t^5
)


def analytic_peaks(G, b):
    if G.kind == "power":
        return [] if G.p == b else [(b / G.p) ** (1.0 / (G.p - b))]
    peaks = [*G.ts, np.nextafter(0.0, -1.0)]
    if b > 1.0:
        with np.errstate(over="ignore"):  # a steep segment's inf peak lies past t_max
            slopes = np.maximum(np.diff(G.values) / np.diff(G.ts), 0.0)
            peaks += list((slopes / b) ** (1.0 / (b - 1.0)))
    return peaks


def reference_holds(G, b, t_max):
    """True or False as G keeps its clauses against t^b on the reference
    points; None when the largest excess sits within rounding of the slack."""
    ts = np.concatenate([
        np.linspace(-1.0, 0.0, 10_000),
        np.linspace(0.0, t_max, 45_000),
        np.geomspace(1e-9, t_max, 45_000),
        analytic_peaks(G, b),
    ])
    ts = ts[(ts >= -1.0) & (ts <= t_max)]
    with np.errstate(over="ignore", invalid="ignore"):
        values = G(ts)
        bounds = np.maximum(ts, 0.0) ** b
        slack = SLACK * (bounds + 1.0)
        # in units of the slack: > 0 breaks the bound; rounding is ~1e-4
        excess = (values - bounds - slack) / slack
    negative = ts < 0.0
    if np.any(negative & (values != 0.0)) or np.any(~negative & (values < 0.0)):
        return False
    over = ~negative & ~np.isfinite(values + slack)  # t^p or t^b overflowed
    if G.kind == "table":  # its values are finite
        excess[over] = -np.inf
    elif over.any():  # there t^b >> 1, and t^b (1 + SLACK) is the allowance
        excess[over] = ((G.p - b) * np.log(ts[over]) - np.log1p(SLACK)) / SLACK
    excess = excess[~negative]
    if np.any(excess > 0.01):
        return False
    if np.any(np.abs(excess) <= 0.01):
        return None
    return True


def alpha1_matches_reference(G, role, q, t_max):
    """Assert that check_alpha1 gives the reference's verdict on G in the
    given role; False when the reference cannot decide."""
    b = 5.0 if role == "F" else q  # n = 3: 2* - 1 = 5
    expected = reference_holds(G, b, t_max)
    if expected is None:
        return False
    # the other function meets its own bound exactly
    F, H = (G, ScalarNonlinearity.power(q)) if role == "F" else (ScalarNonlinearity.power(5.0), G)
    report = check_alpha1(F, H, 3, q, t_max)
    assert report.passed == expected
    if not report.passed:
        assert f"{role}(t)" in report.clause
        assert np.all(np.isfinite([report.t, report.value, report.bound]))
        assert report.value == G(report.t)
    return True


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_alpha1_power_law_matches_a_dense_reference(data):
    role = data.draw(st.sampled_from(["F", "H"]), label="role")
    q = data.draw(st.floats(0.05, 4.95), label="q")
    b = 5.0 if role == "F" else q
    p = data.draw(st.one_of(st.just(b), st.floats(0.01, 8.0)), label="p")
    t_max = data.draw(T_MAX, label="t_max")
    assume(alpha1_matches_reference(ScalarNonlinearity.power(p), role, q, t_max))


@pytest.mark.parametrize("p", [5.0, 4.0, 6.0, 0.3, 8.0])
@pytest.mark.parametrize("t_max", [1e62, 1e300])
def test_alpha1_power_law_past_its_float_range(p, t_max):
    # p = b, p < b and p > b against F's bound t^5, and p < 0.5 = q for H;
    # t^p or t^5 overflows before t_max
    for role in ("F", "H"):
        assert alpha1_matches_reference(ScalarNonlinearity.power(p), role, 0.5, t_max)


@st.composite
def tables(draw):
    ts = sorted(set(draw(st.lists(st.floats(-2.0, 10.0), min_size=2, max_size=6))))
    assume(len(ts) >= 2)
    start = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)), label="start")
    steps = draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
            min_size=len(ts) - 1,
            max_size=len(ts) - 1,
        ),
        label="steps",
    )
    values = start + np.concatenate([[0.0], np.cumsum(steps)])
    truncate = draw(st.booleans(), label="truncate")
    return ScalarNonlinearity.table(ts, values, truncate=truncate)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_alpha1_table_matches_a_dense_reference(data):
    role = data.draw(st.sampled_from(["F", "H"]), label="role")
    q = data.draw(st.floats(0.05, 4.95), label="q")
    G = data.draw(tables(), label="table")
    assume(alpha1_matches_reference(G, role, q, data.draw(T_MAX, label="t_max")))
