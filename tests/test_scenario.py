import json
import os
import re

import numpy as np
import pytest

import subsup
from subsup import ScenarioError, build_problem, load_scenario, parse_scenario
from subsup.iteration import DEFAULT_MAX_STEPS, DEFAULT_TOL

from tests.conftest import base_torus_doc


def readme_block(heading, language):
    """The first ```language block after a README heading."""
    readme = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
    )
    with open(readme, encoding="utf-8") as fh:
        section = fh.read().split(heading, 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_runs(capsys):
    exec(readme_block("## Library", "python"), {})
    # the example prints steps, restarts and coincide, then min u_* and
    # max u^*, which the bracket [0.01, 1] encloses
    first, second = capsys.readouterr().out.splitlines()
    assert first.endswith(" True")
    low, high = map(float, second.split())
    assert 0.01 <= low <= high <= 1.0


class TestParse:
    def test_minimal_document(self):
        s = parse_scenario(json.dumps(base_torus_doc()))
        assert s.n == 3
        assert s.a == 2.0
        assert s.q == 0.5  # inherited from H's exponent
        assert s.tol == 1e-9
        assert s.max_steps == 500

    def test_solver_overrides(self):
        doc = base_torus_doc()
        doc["solver"] = {"tol": 1e-7, "max_steps": 40}
        s = parse_scenario(json.dumps(doc))
        assert (s.tol, s.max_steps) == (1e-7, 40)

    def test_expression_coefficients_kept_as_strings(self):
        doc = base_torus_doc()
        doc["coefficients"]["a"] = "2+0.5*z"
        s = parse_scenario(json.dumps(doc))
        assert s.a == "2+0.5*z"

    @pytest.mark.parametrize(
        "key", ["domain", "n", "coefficients", "nonlinearity", "bracket"]
    )
    def test_missing_top_level_key(self, key):
        doc = base_torus_doc()
        del doc[key]
        with pytest.raises(ScenarioError, match=key):
            parse_scenario(json.dumps(doc))

    def test_missing_nested_key(self):
        doc = base_torus_doc()
        del doc["coefficients"]["f"]
        with pytest.raises(ScenarioError, match="coefficients.f"):
            parse_scenario(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ScenarioError, match="JSON"):
            parse_scenario("{not json")
        with pytest.raises(ScenarioError):
            parse_scenario("[1, 2]")

    def test_unknown_domain_kind(self):
        doc = base_torus_doc()
        doc["domain"] = {"kind": "klein_bottle"}
        with pytest.raises(ScenarioError, match="kind"):
            parse_scenario(json.dumps(doc))

    def test_unknown_nonlinearity_kind(self):
        doc = base_torus_doc()
        doc["nonlinearity"]["F"] = {"kind": "spline"}
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(doc))

    def test_table_h_requires_q(self):
        doc = base_torus_doc()
        doc["nonlinearity"]["H"] = {"kind": "table", "path": "h.csv"}
        with pytest.raises(ScenarioError, match="q"):
            parse_scenario(json.dumps(doc))
        doc["nonlinearity"]["q"] = 0.5
        s = parse_scenario(json.dumps(doc))
        assert s.q == 0.5

    def test_coefficient_must_be_number_or_string(self):
        doc = base_torus_doc()
        doc["coefficients"]["a"] = [1, 2]
        with pytest.raises(ScenarioError):
            parse_scenario(json.dumps(doc))


# (where, replacement document part): each is a shape or value error that
# parse_scenario must report as a ScenarioError naming `where`
POWER_5 = {"kind": "power", "p": 5.0}
POWER_HALF = {"kind": "power", "p": 0.5}

MALFORMED = {
    "subdivisions_null": (
        "domain.subdivisions", "domain", {"kind": "icosphere", "subdivisions": None}
    ),
    "dims_not_pairs": ("domain.dims", "domain", {"kind": "flat_torus", "dims": [8]}),
    "dims_fractional_cells": (
        "domain.dims", "domain", {"kind": "flat_torus", "dims": [[8.5, 1.0]]}
    ),
    "coefficients_number": ("coefficients", "coefficients", 5),
    "bracket_number": ("bracket", "bracket", 5),
    "nonlinearity_number": ("nonlinearity", "nonlinearity", 5),
    "n_null": ("n", "n", None),
    # n - 2 overflows a float
    "n_huge_integer": ("n", "n", 10**400),
    # the critical exponent 2n/(n - 2) needs n >= 3
    "n_two": ("n", "n", 2),
    "tol_negative": ("solver.tol", "solver", {"tol": -1}),
    "tol_zero": ("solver.tol", "solver", {"tol": 0}),
    "tol_nan": ("solver.tol", "solver", {"tol": float("nan")}),
    # an integer past the float range reads as inf
    "tol_huge_integer": ("solver.tol", "solver", {"tol": 10**400}),
    # linear_tol is no key: the linear solves run at tol / 100
    "linear_tol_zero": ("solver.linear_tol", "solver", {"linear_tol": 0}),
    "linear_tol_string": ("solver.linear_tol", "solver", {"linear_tol": "1e-11"}),
    "linear_tol_old_default": (
        "solver.linear_tol", "solver", {"tol": 1e-9, "linear_tol": 1e-11}
    ),
    "solver_unknown_key": ("solver.tolerance", "solver", {"tolerance": 1e-9}),
    "max_steps_zero": ("solver.max_steps", "solver", {"max_steps": 0}),
    "max_steps_fractional": ("solver.max_steps", "solver", {"max_steps": 2.5}),
    # no object holds a key the schema does not name
    "top_level_unknown_key": ("extra", "extra", 1),
    "icosphere_unknown_key": (
        "domain.radiuss", "domain", {"kind": "icosphere", "subdivisions": 1, "radiuss": 2.0}
    ),
    "torus_unknown_key": (
        "domain.radius", "domain", {"kind": "flat_torus", "dims": [[8, 1.0]], "radius": 1}
    ),
    "off_unknown_key": (
        "domain.subdivisions", "domain", {"kind": "off", "path": "m.off", "subdivisions": 2}
    ),
    "coefficients_unknown_key": (
        "coefficients.g", "coefficients", {"a": 2.0, "f": 0.5, "h": 0.5, "g": 1.0}
    ),
    "nonlinearity_unknown_key": (
        "nonlinearity.Q", "nonlinearity", {"F": POWER_5, "H": POWER_HALF, "Q": 0.3}
    ),
    "power_unknown_key": (
        "nonlinearity.F.q", "nonlinearity", {"F": {**POWER_5, "q": 1.0}, "H": POWER_HALF}
    ),
    "table_unknown_key": (
        "nonlinearity.H.p",
        "nonlinearity",
        {"F": POWER_5, "H": {"kind": "table", "path": "h.csv", "p": 0.5}, "q": 0.5},
    ),
    # a power law's exponent lies in (0, 1e18]
    "power_exponent_huge": (
        "nonlinearity.F.p", "nonlinearity", {"F": {"kind": "power", "p": 1e19}, "H": POWER_HALF}
    ),
    "power_exponent_zero": (
        "nonlinearity.F.p", "nonlinearity", {"F": {"kind": "power", "p": 0}, "H": POWER_HALF}
    ),
    "power_exponent_negative": (
        "nonlinearity.F.p", "nonlinearity", {"F": {"kind": "power", "p": -1}, "H": POWER_HALF}
    ),
    # a constant coefficient or bracket end is finite
    "coefficient_nan": (
        "coefficients.a", "coefficients", {"a": float("nan"), "f": 0.5, "h": 0.5}
    ),
    "bracket_infinity": ("bracket.upper", "bracket", {"lower": 0.01, "upper": float("inf")}),
    "bracket_unknown_key": (
        "bracket.lowr", "bracket", {"lower": 0.01, "upper": 1.0, "lowr": 0.01}
    ),
}


def malformed_doc(case):
    _, key, value = MALFORMED[case]
    doc = base_torus_doc()
    doc[key] = value
    return doc


class TestMalformed:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_scenario_error_names_the_field(self, case):
        where = MALFORMED[case][0]
        with pytest.raises(ScenarioError, match=f"'{where}'"):
            parse_scenario(json.dumps(malformed_doc(case)))

    def test_integral_float_is_an_integer(self):
        doc = base_torus_doc()
        doc["n"] = 3.0
        doc["solver"] = {"max_steps": 40.0}
        s = parse_scenario(json.dumps(doc))
        assert (s.n, s.max_steps) == (3, 40)
        assert isinstance(s.n, int) and isinstance(s.max_steps, int)


class TestRoundTrip:
    def test_readme_example_round_trips(self):
        block = readme_block("## Scenario files", "json")
        doc = json.loads(block)
        # README says the example shows the solver defaults
        assert doc["solver"] == {"tol": DEFAULT_TOL, "max_steps": DEFAULT_MAX_STEPS}
        s = parse_scenario(block)
        coefficients, bracket = doc["coefficients"], doc["bracket"]
        assert (s.domain_spec, s.n) == (doc["domain"], doc["n"])
        assert (s.a, s.f, s.h) == (coefficients["a"], coefficients["f"], coefficients["h"])
        assert (s.F_spec, s.H_spec) == (doc["nonlinearity"]["F"], doc["nonlinearity"]["H"])
        assert (s.lower, s.upper) == (bracket["lower"], bracket["upper"])
        assert (s.tol, s.max_steps) == (DEFAULT_TOL, DEFAULT_MAX_STEPS)

    def test_seventeen_digit_floats_survive(self):
        doc = base_torus_doc()
        doc["bracket"]["lower"] = 0.012345678901234567
        assert parse_scenario(json.dumps(doc)).lower == 0.012345678901234567


class TestBuild:
    def test_torus_problem(self):
        s = parse_scenario(json.dumps(base_torus_doc()))
        domain, problem, lower, upper = build_problem(s)
        assert domain.vertex_count == 512
        assert problem.n == 3
        assert np.all(problem.a.values == 2.0)
        assert np.all(lower.values == 0.01)
        assert np.all(upper.values == 1.0)

    def test_expression_fields_evaluated(self):
        doc = base_torus_doc()
        doc["domain"] = {"kind": "icosphere", "subdivisions": 1}
        doc["coefficients"]["a"] = "2+0.5*z"
        s = parse_scenario(json.dumps(doc))
        domain, problem, _, _ = build_problem(s)
        assert np.allclose(problem.a.values, 2.0 + 0.5 * domain.coordinates[:, 2])

    def test_grid_coordinates_are_formed_once_for_expressions(self, monkeypatch):
        # a grid forms its coordinates on each access, so build_problem
        # forms them once for all five fields, and not at all without an
        # expression
        from tests.test_geometry import grid_coordinates

        real, read = subsup.DiscreteDomain.coordinates, []

        def coordinates(domain):
            read.append(domain)
            return real.fget(domain)

        monkeypatch.setattr(subsup.DiscreteDomain, "coordinates", property(coordinates))

        dims = [[6, 1.0], [5, 2.0], [4, 0.7]]
        texts = {
            "a": "2 + 0.1*x*y", "f": "0.5 + 0.1*z", "h": "0.5 - 0.05*y",
            "lower": "0.01 + 0.001*x", "upper": "1 + 0.1*z",
        }
        doc = base_torus_doc()
        doc["domain"]["dims"] = dims
        doc["coefficients"] = {k: texts[k] for k in "afh"}
        doc["bracket"] = {k: texts[k] for k in ("lower", "upper")}
        domain, problem, lower, upper = build_problem(parse_scenario(json.dumps(doc)))
        assert read == [domain]
        coordinates = grid_coordinates(dims)
        fields = {"a": problem.a, "f": problem.f, "h": problem.h,
                  "lower": lower, "upper": upper}
        for name, field in fields.items():
            expected = subsup.evaluate_expression(texts[name], coordinates)
            assert np.array_equal(field.values, expected)
        read[:] = []
        build_problem(parse_scenario(json.dumps(base_torus_doc())))
        assert read == []

    def test_grid_mesh_info_json_is_the_stored_coordinates_export(self, tmp_path):
        from subsup.cli import main
        from tests.test_geometry import grid_coordinates
        from tests.test_serialize import dumps, per_item

        dims = [[6, 1.0], [5, 2.0], [4, 0.7]]
        doc = base_torus_doc()
        doc["domain"]["dims"] = dims
        path, out = tmp_path / "scenario.json", tmp_path / "domain.json"
        path.write_text(json.dumps(doc))
        assert main(["mesh-info", str(path), "--json", str(out)]) == 0
        expected = {
            "kind": "flat_torus",
            "vertex_count": 120,
            "coordinates": grid_coordinates(dims).tolist(),
            "grid": {"cells": [6, 5, 4], "lengths": [1.0, 2.0, 0.7]},
        }
        assert out.read_text() == dumps(per_item(expected))

    def test_bad_expression_is_scenario_error(self):
        doc = base_torus_doc()
        doc["coefficients"]["a"] = "2 +* 3"
        s = parse_scenario(json.dumps(doc))
        with pytest.raises(ScenarioError, match="^'coefficients.a': "):
            build_problem(s)

    def test_off_domain_with_relative_path(self, tmp_path, monkeypatch):
        from tests.test_geometry import TETRA_FACES, TETRA_VERTICES, write_off

        (tmp_path / "data").mkdir()
        mesh = tmp_path / "data" / "mesh.off"
        write_off(mesh, TETRA_VERTICES, TETRA_FACES)
        spath = tmp_path / "data" / "scenario.json"
        # relative to the scenario's directory, absolute, and relative
        # again once the working directory is elsewhere; the scenario is
        # named relative to the working directory
        cases = (("mesh.off", None), (str(mesh), None), ("mesh.off", tmp_path))
        for given, cwd in cases:
            if cwd is not None:
                monkeypatch.chdir(cwd)
            doc = base_torus_doc()
            doc["domain"] = {"kind": "off", "path": given}
            spath.write_text(json.dumps(doc))
            s = load_scenario(os.path.relpath(spath))
            assert s.domain_spec["path"] == str(mesh)
            domain, _, _, _ = build_problem(s)
            assert domain.vertex_count == 4
            assert domain.kind == "off"

    def test_table_with_relative_path(self, tmp_path, monkeypatch):
        (tmp_path / "data").mkdir()
        table = str(tmp_path / "data" / "H.csv")
        with open(table, "w") as fh:
            fh.write("t,value\n0.0,0.0\n1.0,1.0\n")
        spath = tmp_path / "data" / "scenario.json"
        for given, cwd in (("H.csv", None), (table, None), ("H.csv", tmp_path)):
            if cwd is not None:
                monkeypatch.chdir(cwd)
            doc = base_torus_doc()
            doc["nonlinearity"]["H"] = {"kind": "table", "path": given}
            doc["nonlinearity"]["q"] = 0.5
            spath.write_text(json.dumps(doc))
            s = load_scenario(os.path.relpath(spath))
            assert s.H_spec["path"] == table
            _, problem, _, _ = build_problem(s)
            assert problem.H.kind == "table"
            assert problem.H(np.array([0.5]))[0] == pytest.approx(0.5)

    def test_missing_mesh_file(self, tmp_path):
        doc = base_torus_doc()
        doc["domain"] = {"kind": "off", "path": "nope.off"}
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(doc))
        with pytest.raises((ScenarioError, OSError)):
            build_problem(load_scenario(str(spath)))

    def test_shipped_samples_parse(self):
        for name in ("scenarios/torus_constant.json", "scenarios/sphere_variable.json"):
            s = load_scenario(name)
            domain, problem, lower, upper = build_problem(s)
            assert domain.vertex_count > 0
            assert subsup.check_alpha2(problem).passed
