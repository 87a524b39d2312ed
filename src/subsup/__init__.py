"""Sub/supersolution machinery for semilinear elliptic equations on
discrete compact manifolds.

The pieces, bottom up:

- :mod:`subsup.geometry` builds discrete domains (icosphere surfaces, flat
  tori, OFF meshes) and assembles stiffness/mass operators.
- :mod:`subsup.linear_operator` solves the coercive linear problem
  (the operator T).
- :mod:`subsup.nonlinearity` holds the scalar nonlinearities, the growth
  and sign hypothesis checks, and the substitution operator S.
- :mod:`subsup.iteration` verifies lower/upper solution brackets and runs
  the monotone iteration to the minimal/maximal solutions.
- :mod:`subsup.scenario` reads problem descriptions from JSON files.
- :mod:`subsup.cli` exposes all of it as ``subsup check/solve/spectrum/
  mesh-info``.
"""

from .expressions import ExpressionError, evaluate_expression, parse_coefficient
from .geometry import (
    AssemblyError,
    DiscreteDomain,
    Field,
    build_flat_torus,
    build_icosphere,
    generalized_spectrum,
    load_off,
    mesh_quality,
)
from .iteration import (
    Bracket,
    BracketError,
    OrderingError,
    defect,
    iterate_monotone,
    make_bracket,
)
from .linear_operator import (
    ConvergenceError,
    LinearProblem,
    solve_T,
)
from .nonlinearity import (
    NonlinearProblem,
    ScalarNonlinearity,
    apply_S,
    check_alpha1,
    check_alpha2,
    critical_exponent,
)
from .scenario import (
    ScenarioError,
    build_problem,
    load_scenario,
    parse_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AssemblyError",
    "Bracket",
    "BracketError",
    "ConvergenceError",
    "DiscreteDomain",
    "ExpressionError",
    "Field",
    "LinearProblem",
    "NonlinearProblem",
    "OrderingError",
    "ScenarioError",
    "ScalarNonlinearity",
    "apply_S",
    "build_flat_torus",
    "build_icosphere",
    "build_problem",
    "check_alpha1",
    "check_alpha2",
    "critical_exponent",
    "defect",
    "evaluate_expression",
    "generalized_spectrum",
    "iterate_monotone",
    "load_off",
    "load_scenario",
    "make_bracket",
    "mesh_quality",
    "parse_coefficient",
    "parse_scenario",
    "solve_T",
]
