"""Command-line front end.

    subsup check     scenario.json [--json report.json]
    subsup solve     scenario.json --out DIR [--tol T] [--max-steps N]
    subsup spectrum  scenario.json --k K
    subsup mesh-info scenario.json [--json domain.json]

Exit codes: 0 success, 1 hypothesis/convergence failure, 2 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .expressions import ExpressionError
from .geometry import generalized_spectrum, mesh_quality
from .iteration import BracketError, OrderingError, iterate_monotone, make_bracket
from .linear_operator import ConvergenceError
from .nonlinearity import check_alpha1, check_alpha2
from .scenario import ScenarioError, _max_steps, _positive, build_problem, load_scenario
from .serialize import format_float, write_json

SPECTRUM_VERTEX_LIMIT = 5000


def _run_checks(problem, lower, upper, tol):
    """The four hypothesis/bracket checks; returns (report, bracket or None)."""
    t_max = 2.0 * float(upper.values.max())
    a1 = check_alpha1(problem.F, problem.H, problem.n, problem.q, t_max)
    a2 = check_alpha2(problem)
    report = {"alpha1": a1.to_json_dict(), "alpha2": a2.to_json_dict()}

    # the defects need the linear operator, which a <= 0 breaks
    skipped = not a2.passed and a2.clause == "a > 0"
    bracket, failures = None, (None, None)
    if not skipped:
        try:
            bracket = make_bracket(problem, lower, upper, tol)
        except BracketError as exc:
            failures = exc.failures
    for side, failure in zip(("lower", "upper"), failures):
        report[side] = {
            "passed": not skipped and failure is None,
            "skipped": skipped,
            "vertex": None if failure is None else failure.vertex,
            "defect": None if failure is None else failure.defect,
            "unordered": failure is not None and failure.kind == "unordered",
        }

    report["passed"] = a1.passed and a2.passed and bracket is not None
    return report, bracket if report["passed"] else None


def _print_checks(report):
    a1 = report["alpha1"]
    if a1["passed"]:
        print("alpha1 growth bounds: PASS")
    else:
        print(
            f"alpha1 growth bounds: FAIL ({a1['clause']} at t = {a1['t']:g}, "
            f"value {a1['value']:g}, bound {a1['bound']:g})"
        )
    for w in a1.get("warnings", []):
        print(f"  warning: {w}")
    a2 = report["alpha2"]
    if a2["passed"]:
        print("alpha2 sign conditions: PASS")
    else:
        where = f" at vertex {a2['vertex']}" if a2.get("vertex") is not None else ""
        print(f"alpha2 sign conditions: FAIL ({a2['clause']}{where})")
    for side in ("lower", "upper"):
        entry = report[side]
        label = f"{side} solution check"
        if entry["skipped"]:
            print(f"{label}: SKIPPED (a > 0 failed)")
        elif entry["passed"]:
            print(f"{label}: PASS")
        elif entry["defect"] is not None:
            print(
                f"{label}: FAIL (defect {entry['defect']:.6e} of the wrong sign "
                f"at vertex {entry['vertex']})"
            )
        elif entry.get("unordered"):
            print(f"{label}: FAIL (lower exceeds upper at vertex {entry['vertex']})")
        elif entry["vertex"] is None:
            print(f"{label}: FAIL (identically zero)")
        else:
            print(f"{label}: FAIL (negative entry at vertex {entry['vertex']})")


def cmd_check(args):
    scenario = load_scenario(args.scenario)
    _, problem, lower, upper = build_problem(scenario)
    report, _ = _run_checks(problem, lower, upper, scenario.tol)
    _print_checks(report)
    if args.json:
        write_json(args.json, report)
    return 0 if report["passed"] else 1


def cmd_solve(args):
    scenario = load_scenario(args.scenario)
    # overrides obey the scenario's own solver rules
    tol = scenario.tol if args.tol is None else _positive(args.tol, "--tol")
    max_steps = (
        scenario.max_steps
        if args.max_steps is None
        else _max_steps(args.max_steps, "--max-steps")
    )
    domain, problem, lower, upper = build_problem(scenario)
    report, bracket = _run_checks(problem, lower, upper, tol)
    _print_checks(report)
    if bracket is None:
        print("checks failed; not iterating")
        return 1

    t0 = time.perf_counter()
    pair, trace = iterate_monotone(problem, bracket, tol=tol, max_steps=max_steps)
    wall = time.perf_counter() - t0

    os.makedirs(args.out, exist_ok=True)
    pair.write_json(os.path.join(args.out, "solution.json"))
    pair.write_csv(os.path.join(args.out, "solution.csv"))
    trace.write_csv(os.path.join(args.out, "trace.csv"))

    min_u_star = float(pair.u_star.values.min())
    summary = {
        "alpha1_report": report["alpha1"],
        "alpha2_report": report["alpha2"],
        "bracket_verified": [report["lower"]["passed"], report["upper"]["passed"]],
        "steps": int(trace.steps),
        "restarts": {"lower": trace.restarts[0], "upper": trace.restarts[1]},
        "converged": bool(trace.converged),
        "residuals": {
            "lower": float(pair.residual_lower),
            "upper": float(pair.residual_upper),
        },
        "coincide": bool(pair.coincide),
        "min_u_star": min_u_star,
        "wall_time": float(wall),
    }
    write_json(os.path.join(args.out, "summary.json"), summary)

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


def cmd_spectrum(args):
    scenario = load_scenario(args.scenario)
    from .scenario import build_domain

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


def cmd_mesh_info(args):
    scenario = load_scenario(args.scenario)
    from .scenario import build_domain

    domain = build_domain(scenario)
    quality = mesh_quality(domain)
    print(f"kind: {domain.kind}")
    print(f"vertices: {domain.vertex_count}")
    if domain.is_surface:
        print(f"faces: {len(domain.faces)}")
    else:
        print(f"grid cells: {list(domain.grid_cells)}")
        print(f"grid lengths: {[float(l) for l in domain.grid_lengths]}")
    print(f"volume (mass sum): {domain.mass.sum():.12g}")
    print(f"obtuse triangles: {quality.obtuse_triangle_count}")
    print(f"positive off-diagonals: {quality.positive_offdiagonal_count}")
    print(f"m-matrix compatible: {str(quality.is_m_matrix_compatible).lower()}")
    print(f"connected: {str(domain.is_connected()).lower()}")
    if args.json:
        write_json(args.json, domain.to_json_dict())
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BracketError, OrderingError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ScenarioError, ExpressionError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
