"""Scenario files: the JSON description of one solver run.

Schema (all floats round-trip at 17 significant digits):

    {
      "domain": {"kind": "icosphere", "subdivisions": 3, "radius": 1.0}
              | {"kind": "flat_torus", "dims": [[8, 1.0], [8, 1.0], [8, 1.0]]}
              | {"kind": "off", "path": "mesh.off"},
      "n": 3,
      "coefficients": {"a": 2.0, "f": 0.5, "h": "0.5 + 0*x"},
      "nonlinearity": {"F": {"kind": "power", "p": 5.0},
                       "H": {"kind": "power", "p": 0.5},
                       "q": 0.5},
      "bracket": {"lower": 0.01, "upper": 1.0},
      "solver": {"tol": 1e-9, "max_steps": 500}
    }

Coefficients and bracket ends are JSON numbers (constants) or strings
in the expression grammar.  "q" defaults to H's exponent for power-law
H and is required for tables.  The "solver" block is optional and holds
no other keys; the linear solves run at tol / 100 (see
iterate_monotone).  Serialization always writes the block out, so
parse -> serialize -> parse is a fixed point.  Relative paths (OFF
meshes, nonlinearity tables) resolve against the scenario file's
directory.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field as dataclass_field

from .expressions import parse_coefficient
from .geometry import build_flat_torus, build_icosphere, load_off
from .iteration import DEFAULT_MAX_STEPS, DEFAULT_TOL
from .nonlinearity import NonlinearProblem, ScalarNonlinearity
from .serialize import dumps


class ScenarioError(ValueError):
    """Malformed scenario content (an input error, CLI exit 2)."""


@dataclass
class Scenario:
    domain_spec: dict
    n: int
    a: object  # float | str
    f: object
    h: object
    F_spec: dict
    H_spec: dict
    q: float | None
    lower: object
    upper: object
    tol: float = DEFAULT_TOL
    max_steps: int = DEFAULT_MAX_STEPS
    base_dir: str = dataclass_field(default=".", compare=False)


def _object(raw, where):
    if not isinstance(raw, dict):
        raise ScenarioError(f"'{where}' must be an object")
    return raw


def _number(raw, where):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"'{where}' must be a number")
    return float(raw)


def _integer(raw, where):
    if isinstance(raw, float) and raw.is_integer():
        raw = int(raw)
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ScenarioError(f"'{where}' must be an integer")
    return raw


def _positive(raw, where):
    value = _number(raw, where)
    if not (math.isfinite(value) and value > 0.0):
        raise ScenarioError(f"'{where}' must be a finite number > 0, got {value!r}")
    return value


def _max_steps(raw, where):
    value = _integer(raw, where)
    if value < 1:
        raise ScenarioError(f"'{where}' must be >= 1, got {value}")
    return value


def _coeff(raw, where):
    if isinstance(raw, bool) or not isinstance(raw, (int, float, str)):
        raise ScenarioError(f"{where}: expected a number or expression string")
    return float(raw) if isinstance(raw, (int, float)) else raw


def _nonlin_spec(raw, where):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ScenarioError(f"{where}: expected an object with a 'kind'")
    kind = raw["kind"]
    if kind == "power":
        if "p" not in raw:
            raise ScenarioError(f"{where}: power law needs 'p'")
        return {"kind": "power", "p": _number(raw["p"], f"{where}.p")}
    if kind == "table":
        if "path" not in raw:
            raise ScenarioError(f"{where}: table needs 'path'")
        return {"kind": "table", "path": str(raw["path"])}
    raise ScenarioError(f"{where}: unknown nonlinearity kind '{kind}'")


def parse_scenario(text, base_dir="."):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")

    def need(key, within=None, src=None):
        src = src if src is not None else doc
        name = key if within is None else f"{within}.{key}"
        if key not in src:
            raise ScenarioError(f"scenario is missing '{name}'")
        return src[key]

    dom = need("domain")
    if not isinstance(dom, dict) or "kind" not in dom:
        raise ScenarioError("'domain' must be an object with a 'kind'")
    kind = dom["kind"]
    if kind == "icosphere":
        spec = {
            "kind": "icosphere",
            "subdivisions": _integer(
                need("subdivisions", "domain", dom), "domain.subdivisions"
            ),
            "radius": _number(dom.get("radius", 1.0), "domain.radius"),
        }
    elif kind == "flat_torus":
        dims = need("dims", "domain", dom)
        if not isinstance(dims, list) or not dims or not all(
            isinstance(d, list) and len(d) == 2 for d in dims
        ):
            raise ScenarioError(
                "'domain.dims' must be a non-empty list of [cells, length] pairs"
            )
        spec = {
            "kind": "flat_torus",
            "dims": [
                [_integer(c, "domain.dims"), _number(l, "domain.dims")]
                for c, l in dims
            ],
        }
    elif kind == "off":
        spec = {"kind": "off", "path": str(need("path", "domain", dom))}
    else:
        raise ScenarioError(f"unknown domain kind '{kind}'")

    coeffs = _object(need("coefficients"), "coefficients")
    nl = _object(need("nonlinearity"), "nonlinearity")
    bracket = _object(need("bracket"), "bracket")
    solver = _object(doc.get("solver", {}), "solver")
    for key in solver:
        if key not in ("tol", "max_steps"):
            raise ScenarioError(f"unknown key 'solver.{key}'")

    H_spec = _nonlin_spec(need("H", "nonlinearity", nl), "nonlinearity.H")
    q = nl.get("q")
    if q is None and H_spec["kind"] == "power":
        q = H_spec["p"]
    if q is None:
        raise ScenarioError("'nonlinearity.q' is required when H is a table")

    return Scenario(
        domain_spec=spec,
        n=_integer(need("n"), "n"),
        a=_coeff(need("a", "coefficients", coeffs), "coefficients.a"),
        f=_coeff(need("f", "coefficients", coeffs), "coefficients.f"),
        h=_coeff(need("h", "coefficients", coeffs), "coefficients.h"),
        F_spec=_nonlin_spec(need("F", "nonlinearity", nl), "nonlinearity.F"),
        H_spec=H_spec,
        q=_number(q, "nonlinearity.q"),
        lower=_coeff(need("lower", "bracket", bracket), "bracket.lower"),
        upper=_coeff(need("upper", "bracket", bracket), "bracket.upper"),
        tol=_positive(solver.get("tol", DEFAULT_TOL), "solver.tol"),
        max_steps=_max_steps(
            solver.get("max_steps", DEFAULT_MAX_STEPS), "solver.max_steps"
        ),
        base_dir=base_dir,
    )


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))


def serialize_scenario(scenario):
    doc = {
        "domain": scenario.domain_spec,
        "n": scenario.n,
        "coefficients": {"a": scenario.a, "f": scenario.f, "h": scenario.h},
        "nonlinearity": {
            "F": scenario.F_spec,
            "H": scenario.H_spec,
            "q": scenario.q,
        },
        "bracket": {"lower": scenario.lower, "upper": scenario.upper},
        "solver": {"tol": scenario.tol, "max_steps": scenario.max_steps},
    }
    return dumps(doc)


def build_domain(scenario):
    spec = scenario.domain_spec
    if spec["kind"] == "icosphere":
        return build_icosphere(
            spec["subdivisions"], spec["radius"], dimension=scenario.n
        )
    if spec["kind"] == "flat_torus":
        return build_flat_torus(spec["dims"], dimension=scenario.n)
    path = spec["path"]
    if not os.path.isabs(path):
        path = os.path.join(scenario.base_dir, path)
    if not os.path.exists(path):
        raise ScenarioError(f"mesh file not found: {path}")
    return load_off(path, dimension=scenario.n)


def _field_from(domain, raw):
    if isinstance(raw, str):
        return parse_coefficient(raw, domain)
    return domain.field(float(raw))


def _nonlin_from(spec, base_dir):
    if spec["kind"] == "power":
        return ScalarNonlinearity.power(spec["p"])
    path = spec["path"]
    if not os.path.isabs(path):
        path = os.path.join(base_dir, path)
    if not os.path.exists(path):
        raise ScenarioError(f"nonlinearity table not found: {path}")
    try:
        return ScalarNonlinearity.from_csv(path)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def build_problem(scenario, domain=None):
    """Instantiate (domain, problem, lower, upper) from a scenario."""
    if domain is None:
        domain = build_domain(scenario)
    problem = NonlinearProblem(
        domain,
        a=_field_from(domain, scenario.a),
        f=_field_from(domain, scenario.f),
        h=_field_from(domain, scenario.h),
        F=_nonlin_from(scenario.F_spec, scenario.base_dir),
        H=_nonlin_from(scenario.H_spec, scenario.base_dir),
        n=scenario.n,
        q=scenario.q,
    )
    lower = _field_from(domain, scenario.lower)
    upper = _field_from(domain, scenario.upper)
    return domain, problem, lower, upper
