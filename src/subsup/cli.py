"""Command-line front end.

    subsup check     scenario.json [--json report.json]
    subsup solve     scenario.json --out DIR [--tol T] [--max-steps N]
    subsup spectrum  scenario.json --k K
    subsup mesh-info scenario.json [--json domain.json]

Exit codes: 0 success, 1 hypothesis/convergence failure, 2 input error.
This module builds and writes every document the program outputs; the
library returns plain records.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time

from .geometry import generalized_spectrum, mesh_quality
from .iteration import (
    SIDES, BracketError, IterationTrace, OrderingError, iterate_monotone, make_bracket,
)
from .linear_operator import ConvergenceError
from .nonlinearity import check_alpha1, check_alpha2
from .scenario import (
    ScenarioError, _max_steps, _positive, build_domain, build_problem, load_scenario,
)
from .serialize import FloatColumn, format_float, write_csv, write_json

# The ~20k objects the imports leave (the interpreter's, numpy's and ours)
# live until exit and none is garbage, yet interpreter shutdown runs
# several full collections over them, ~20 ms per command: the permanent
# generation that freeze() moves them to is never collected.  Done here,
# not in the package, so that importing the library leaves the caller's
# collector alone.
gc.freeze()

SPECTRUM_VERTEX_LIMIT = 5000


def _run_checks(problem, lower, upper, tol):
    """Run and print the four hypothesis/bracket checks.

    Returns (report, bracket): the report is what check --json writes,
    and the bracket is the verified one, or None unless every check
    passed.
    """
    # alpha1 is checked up to twice the upper end, and t_max must be
    # positive: an upper end <= 0 everywhere, which fails the bracket
    # rule, leaves it checked up to the least positive normal double
    t_max = 2.0 * max(float(upper.values.max()), sys.float_info.min)
    a1 = check_alpha1(problem.F, problem.H, problem.n, problem.q, t_max)
    a2 = check_alpha2(problem)
    bracket, failures = None, (None, None)
    try:
        bracket = make_bracket(problem, lower, upper, tol)
    except BracketError as exc:
        failures = exc.failures

    # a failing check's report names where it fails
    report = {"alpha1": {"passed": a1.passed, "warnings": list(a1.warnings)}}
    verdict = "PASS"
    if not a1.passed:
        report["alpha1"].update(clause=a1.clause, t=a1.t, value=a1.value, bound=a1.bound)
        verdict = f"FAIL ({a1.clause} at t = {a1.t:g}, value {a1.value:g}, bound {a1.bound:g})"
    print(f"alpha1 growth bounds: {verdict}")
    for w in a1.warnings:
        print(f"  warning: {w}")
    report["alpha2"] = {"passed": a2.passed}
    verdict = "PASS"
    if not a2.passed:
        report["alpha2"].update(clause=a2.clause, vertex=a2.vertex)
        where = "" if a2.vertex is None else f" at vertex {a2.vertex}"
        verdict = f"FAIL ({a2.clause}{where})"
    print(f"alpha2 sign conditions: {verdict}")
    for side, failure in zip(SIDES, failures):
        report[side] = {
            "passed": failure is None,
            "vertex": None if failure is None else failure.vertex,
            "defect": None if failure is None else failure.defect,
            "unordered": failure is not None and failure.kind == "unordered",
        }
        verdict = "PASS" if failure is None else f"FAIL ({failure})"
        print(f"{side} solution check: {verdict}")
    report["passed"] = a1.passed and a2.passed and bracket is not None
    return report, bracket if report["passed"] else None


def cmd_check(args, scenario):
    _, problem, lower, upper = build_problem(scenario)
    report, _ = _run_checks(problem, lower, upper, scenario.tol)
    if args.json:
        write_json(args.json, report)
    return 0 if report["passed"] else 1


def cmd_solve(args, scenario):
    # overrides obey the scenario's own solver rules
    tol = scenario.tol if args.tol is None else _positive(args.tol, "--tol")
    max_steps = (
        scenario.max_steps
        if args.max_steps is None
        else _max_steps(args.max_steps, "--max-steps")
    )
    domain, problem, lower, upper = build_problem(scenario)
    report, bracket = _run_checks(problem, lower, upper, tol)
    if bracket is None:
        print("checks failed; not iterating")
        return 1

    t0 = time.perf_counter()
    pair, trace = iterate_monotone(problem, bracket, tol=tol, max_steps=max_steps)
    wall = time.perf_counter() - t0

    min_u_star = float(pair.u_star.values.min())
    residuals = float(pair.residual_lower), float(pair.residual_upper)
    summary = {
        "alpha1_warnings": report["alpha1"]["warnings"],
        "bracket_verified": [report[side]["passed"] for side in SIDES],
        "steps": int(trace.steps),
        "restarts": dict(zip(SIDES, trace.restarts)),
        "refusals": dict(zip(SIDES, trace.refusals)),
        "cg_iterations": dict(zip(SIDES, trace.cg_iterations)),
        "converged": bool(trace.converged),
        "residuals": dict(zip(SIDES, residuals)),
        "coincide": bool(pair.coincide),
        "enclosure_width": trace.enclosure_width,
        "min_u_star": min_u_star,
        "wall_time": float(wall),
    }
    write_solution(args.out, pair, trace, summary)

    state = "converged" if trace.converged else "did NOT converge"
    print(
        f"{state} in {trace.steps} steps ({wall:.3f} s); "
        f"coincide = {str(pair.coincide).lower()}, min u_* = {min_u_star:.6g}"
    )
    if not trace.converged:
        print(f"max_steps = {max_steps} exhausted; artifacts written with flag")
        return 1
    if not domain.is_connected():
        print("domain is not connected; positivity is not certified")
        return 1
    if min_u_star <= 0.0:
        print("positivity failed on a connected domain")
        return 1
    return 0


def write_solution(out, pair, trace, summary):
    """Write solution.json, solution.csv, trace.csv and summary.json to out."""
    # solution.json and solution.csv share one formatting of each limit
    lower, upper = FloatColumn(pair.u_star.values), FloatColumn(pair.u_upper_star.values)
    solution = {
        "u_star": lower,
        "u_upper_star": upper,
        "residual_lower": float(pair.residual_lower),
        "residual_upper": float(pair.residual_upper),
        "coincide": bool(pair.coincide),
    }
    os.makedirs(out, exist_ok=True)
    write_json(os.path.join(out, "solution.json"), solution)
    columns = [range(lower.values.size), lower, upper]
    write_csv(os.path.join(out, "solution.csv"), ["vertex", "u_star", "u_upper_star"], columns)
    step, seq, *floats = zip(*trace.rows())
    columns = [step, seq, *map(FloatColumn, floats)]
    write_csv(os.path.join(out, "trace.csv"), IterationTrace.COLUMNS, columns)
    write_json(os.path.join(out, "summary.json"), summary)


def cmd_spectrum(args, scenario):
    domain = build_domain(scenario)
    if domain.vertex_count > SPECTRUM_VERTEX_LIMIT:
        raise ScenarioError(
            f"spectrum limited to {SPECTRUM_VERTEX_LIMIT} vertices, "
            f"domain has {domain.vertex_count}"
        )
    values = generalized_spectrum(domain, args.k)
    for value in values:
        print(format_float(float(value)))
    return 0


def cmd_mesh_info(args, scenario):
    domain = build_domain(scenario)
    quality = mesh_quality(domain)
    print(f"kind: {domain.kind}")
    print(f"vertices: {domain.vertex_count}")
    if domain.is_surface:
        print(f"faces: {len(domain.faces)}")
        shape = {"faces": domain.faces}
    else:
        grid = {"cells": list(domain.grid_cells), "lengths": list(domain.grid_lengths)}
        print(f"grid cells: {grid['cells']}")
        print(f"grid lengths: {grid['lengths']}")
        shape = {"grid": grid}
    print(f"volume (mass sum): {domain.mass.sum():.12g}")
    print(f"obtuse triangles: {quality.obtuse_triangle_count}")
    print(f"positive off-diagonals: {quality.positive_offdiagonal_count}")
    print(f"m-matrix compatible: {str(quality.is_m_matrix_compatible).lower()}")
    print(f"connected: {str(domain.is_connected()).lower()}")
    if args.json:
        # a grid forms its coordinates on access, so only here
        document = {
            "kind": domain.kind,
            "vertex_count": domain.vertex_count,
            "coordinates": domain.coordinates,
            **shape,
        }
        write_json(args.json, document)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subsup",
        description=(
            "Monotone sub/supersolution iteration for semilinear elliptic "
            "equations on discrete compact manifolds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run hypothesis and bracket checks")
    p.add_argument("scenario")
    p.add_argument("--json", metavar="PATH", help="also write the JSON report")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="run the monotone iteration")
    p.add_argument("scenario")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--tol", type=float, default=None, metavar="T")
    p.add_argument("--max-steps", type=int, default=None, metavar="N")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", help="smallest generalized eigenvalues of (L, M)")
    p.add_argument("scenario")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("mesh-info", help="domain summary and quality report")
    p.add_argument("scenario")
    p.add_argument("--json", metavar="PATH", help="also export the domain as JSON")
    p.set_defaults(func=cmd_mesh_info)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_scenario(args.scenario))
    except (BracketError, OrderingError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # ScenarioError, ExpressionError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
