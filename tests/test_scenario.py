import json
import os
import re

import numpy as np
import pytest

import subsup
from subsup import ScenarioError, build_problem, load_scenario, parse_scenario, serialize_scenario
from subsup.iteration import DEFAULT_MAX_STEPS, DEFAULT_TOL

from tests.conftest import base_torus_doc


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
    "tol_negative": ("solver.tol", "solver", {"tol": -1}),
    "tol_zero": ("solver.tol", "solver", {"tol": 0}),
    "tol_nan": ("solver.tol", "solver", {"tol": float("nan")}),
    # linear_tol is no key: the linear solves run at tol / 100
    "linear_tol_zero": ("solver.linear_tol", "solver", {"linear_tol": 0}),
    "linear_tol_string": ("solver.linear_tol", "solver", {"linear_tol": "1e-11"}),
    "linear_tol_old_default": (
        "solver.linear_tol", "solver", {"tol": 1e-9, "linear_tol": 1e-11}
    ),
    "solver_unknown_key": ("solver.tolerance", "solver", {"tolerance": 1e-9}),
    "max_steps_zero": ("solver.max_steps", "solver", {"max_steps": 0}),
    "max_steps_fractional": ("solver.max_steps", "solver", {"max_steps": 2.5}),
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
    def test_parse_serialize_parse_fixed_point(self):
        doc = base_torus_doc()
        doc["coefficients"]["a"] = "2+0.5*z"
        s1 = parse_scenario(json.dumps(doc))
        text = serialize_scenario(s1)
        s2 = parse_scenario(text)
        assert s1 == s2
        assert serialize_scenario(s2) == text

    def test_readme_example_round_trips(self):
        readme = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
        )
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("## Scenario files", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        # README says the example shows the solver defaults
        assert json.loads(block)["solver"] == {
            "tol": DEFAULT_TOL, "max_steps": DEFAULT_MAX_STEPS
        }
        s1 = parse_scenario(block)
        text = serialize_scenario(s1)
        assert parse_scenario(text) == s1
        assert serialize_scenario(parse_scenario(text)) == text

    def test_seventeen_digit_floats_survive(self):
        doc = base_torus_doc()
        doc["bracket"]["lower"] = 0.012345678901234567
        s1 = parse_scenario(json.dumps(doc))
        s2 = parse_scenario(serialize_scenario(s1))
        assert s2.lower == 0.012345678901234567


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

    def test_bad_expression_is_scenario_error(self):
        doc = base_torus_doc()
        doc["coefficients"]["a"] = "2 +* 3"
        s = parse_scenario(json.dumps(doc))
        with pytest.raises((ScenarioError, subsup.ExpressionError)):
            build_problem(s)

    def test_off_domain_with_relative_path(self, tmp_path):
        from tests.test_geometry import TETRA_FACES, TETRA_VERTICES, write_off

        write_off(tmp_path / "mesh.off", TETRA_VERTICES, TETRA_FACES)
        doc = base_torus_doc()
        doc["domain"] = {"kind": "off", "path": "mesh.off"}
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(doc))
        s = load_scenario(str(spath))
        domain, _, _, _ = build_problem(s)
        assert domain.vertex_count == 4
        assert domain.kind == "off"

    def test_table_with_relative_path(self, tmp_path):
        (tmp_path / "H.csv").write_text("t,value\n0.0,0.0\n1.0,1.0\n")
        doc = base_torus_doc()
        doc["nonlinearity"]["H"] = {"kind": "table", "path": "H.csv"}
        doc["nonlinearity"]["q"] = 0.5
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps(doc))
        _, problem, _, _ = build_problem(load_scenario(str(spath)))
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
