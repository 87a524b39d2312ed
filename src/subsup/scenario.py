"""Scenario files: the JSON description of one solver run.

Schema:

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
in the expression grammar.  "q" is required when H is a table; left
out for a power-law H, Scenario.q is None and NonlinearProblem takes
H's exponent.  The "solver" block is optional; the linear solves run
at tol / 100 (see iterate_monotone).  No object holds keys other than
those shown for it (a table nonlinearity holds "kind" and "path"): an
unknown key is an error that names it, so a misspelt key cannot run a
different problem.
parse_scenario resolves each path (OFF meshes, nonlinearity tables)
once, as os.path.join(base_dir, path), so a relative one resolves
against the scenario file's directory and an absolute one stays as
it is.  A malformed coefficient or bracket expression is an error
that names its field.  "n", the dimension of the manifold, enters
only through the critical exponent 2n/(n - 2), so it is passed to the
NonlinearProblem and to no domain builder.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from .expressions import ExpressionError, evaluate_expression
from .geometry import Field, build_flat_torus, build_icosphere, load_off
from .iteration import DEFAULT_MAX_STEPS, DEFAULT_TOL
from .nonlinearity import MAX_EXPONENT, NonlinearProblem, ScalarNonlinearity


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


def _object(raw, where, keys):
    if not isinstance(raw, dict):
        raise ScenarioError(f"'{where}' must be an object")
    return _known(raw, where, keys)


def _known(raw, where, keys):
    """raw, once none of its keys is outside keys; where is its path, "" at the top."""
    for key in raw:
        if key not in keys:
            raise ScenarioError(f"unknown key '{where}{'.' if where else ''}{key}'")
    return raw


def _number(raw, where):
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"'{where}' must be a number")
    try:
        return float(raw)
    except OverflowError:  # an integer past the float range: a float literal's inf
        return math.inf if raw > 0 else -math.inf


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


def _dimension(raw, where):
    # 2n/(n - 2), the critical exponent, needs n >= 3, and n - 2 is exact
    # as a float up to 2**53
    value = _integer(raw, where)
    if not 3 <= value <= 2**53:
        raise ScenarioError(f"'{where}' must be an integer in [3, 2**53]")
    return value


def _coeff(raw, where):
    if isinstance(raw, str):
        return raw
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ScenarioError(f"'{where}' must be a number or an expression string")
    value = _number(raw, where)
    if not math.isfinite(value):
        raise ScenarioError(f"'{where}' must be a finite number, got {value!r}")
    return value


def _nonlin_spec(raw, where, base_dir):
    if not isinstance(raw, dict) or "kind" not in raw:
        raise ScenarioError(f"{where}: expected an object with a 'kind'")
    kind = raw["kind"]
    if kind == "power":
        _known(raw, where, ("kind", "p"))
        if "p" not in raw:
            raise ScenarioError(f"{where}: power law needs 'p'")
        p = _number(raw["p"], f"{where}.p")
        if not 0.0 < p <= MAX_EXPONENT:
            raise ScenarioError(f"'{where}.p' must lie in (0, 1e18], got {p:g}")
        return {"kind": "power", "p": p}
    if kind == "table":
        _known(raw, where, ("kind", "path"))
        if "path" not in raw:
            raise ScenarioError(f"{where}: table needs 'path'")
        return {"kind": "table", "path": os.path.join(base_dir, str(raw["path"]))}
    raise ScenarioError(f"{where}: unknown nonlinearity kind '{kind}'")


def parse_scenario(text, base_dir="."):
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as exc:
        # ValueError: a JSONDecodeError, or an integer literal past the
        # interpreter's digit limit; RecursionError: nesting too deep
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    _known(
        doc, "", ("domain", "n", "coefficients", "nonlinearity", "bracket", "solver")
    )

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
        _known(dom, "domain", ("kind", "subdivisions", "radius"))
        spec = {
            "kind": "icosphere",
            "subdivisions": _integer(
                need("subdivisions", "domain", dom), "domain.subdivisions"
            ),
            "radius": _number(dom.get("radius", 1.0), "domain.radius"),
        }
    elif kind == "flat_torus":
        _known(dom, "domain", ("kind", "dims"))
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
        _known(dom, "domain", ("kind", "path"))
        path = os.path.join(base_dir, str(need("path", "domain", dom)))
        spec = {"kind": "off", "path": path}
    else:
        raise ScenarioError(f"unknown domain kind '{kind}'")

    coeffs = _object(need("coefficients"), "coefficients", ("a", "f", "h"))
    nl = _object(need("nonlinearity"), "nonlinearity", ("F", "H", "q"))
    bracket = _object(need("bracket"), "bracket", ("lower", "upper"))
    solver = _object(doc.get("solver", {}), "solver", ("tol", "max_steps"))

    H_spec = _nonlin_spec(need("H", "nonlinearity", nl), "nonlinearity.H", base_dir)
    q = nl.get("q")
    if q is None and H_spec["kind"] == "table":
        raise ScenarioError("'nonlinearity.q' is required when H is a table")

    return Scenario(
        domain_spec=spec,
        n=_dimension(need("n"), "n"),
        a=_coeff(need("a", "coefficients", coeffs), "coefficients.a"),
        f=_coeff(need("f", "coefficients", coeffs), "coefficients.f"),
        h=_coeff(need("h", "coefficients", coeffs), "coefficients.h"),
        F_spec=_nonlin_spec(need("F", "nonlinearity", nl), "nonlinearity.F", base_dir),
        H_spec=H_spec,
        q=None if q is None else _number(q, "nonlinearity.q"),
        lower=_coeff(need("lower", "bracket", bracket), "bracket.lower"),
        upper=_coeff(need("upper", "bracket", bracket), "bracket.upper"),
        tol=_positive(solver.get("tol", DEFAULT_TOL), "solver.tol"),
        max_steps=_max_steps(
            solver.get("max_steps", DEFAULT_MAX_STEPS), "solver.max_steps"
        ),
    )


def load_scenario(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))


def build_domain(scenario):
    spec = scenario.domain_spec
    if spec["kind"] == "icosphere":
        return build_icosphere(spec["subdivisions"], spec["radius"])
    if spec["kind"] == "flat_torus":
        return build_flat_torus(spec["dims"])
    if not os.path.exists(spec["path"]):
        raise ScenarioError(f"mesh file not found: {spec['path']}")
    return load_off(spec["path"])


def _field_from(domain, coordinates, raw, where):
    if not isinstance(raw, str):
        return domain.field(float(raw))
    try:
        return Field(domain, evaluate_expression(raw, coordinates))
    except ExpressionError as exc:
        raise ScenarioError(f"'{where}': {exc}") from None


def _nonlin_from(spec):
    if spec["kind"] == "power":
        return ScalarNonlinearity.power(spec["p"])
    if not os.path.exists(spec["path"]):
        raise ScenarioError(f"nonlinearity table not found: {spec['path']}")
    try:
        return ScalarNonlinearity.from_csv(spec["path"])
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None


def build_problem(scenario):
    """Instantiate (domain, problem, lower, upper) from a scenario.

    A grid forms its coordinates on each access (see DiscreteDomain), so
    they are formed here once, and only if a coefficient or a bracket end
    is an expression; none of the fields keeps them.
    """
    domain = build_domain(scenario)
    raw = (scenario.a, scenario.f, scenario.h, scenario.lower, scenario.upper)
    coordinates = domain.coordinates if any(isinstance(r, str) for r in raw) else None
    problem = NonlinearProblem(
        domain,
        a=_field_from(domain, coordinates, scenario.a, "coefficients.a"),
        f=_field_from(domain, coordinates, scenario.f, "coefficients.f"),
        h=_field_from(domain, coordinates, scenario.h, "coefficients.h"),
        F=_nonlin_from(scenario.F_spec),
        H=_nonlin_from(scenario.H_spec),
        n=scenario.n,
        q=scenario.q,
    )
    lower = _field_from(domain, coordinates, scenario.lower, "bracket.lower")
    upper = _field_from(domain, coordinates, scenario.upper, "bracket.upper")
    return domain, problem, lower, upper
