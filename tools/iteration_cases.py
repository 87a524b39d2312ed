"""Print what iterate_monotone does on a fixed list of cases, one line each.

Each line gives the case, steps, restarts, refusals, CG iterations of
(lower, upper), whether the run converged, the width of the verified
enclosure it stopped on (- if it stopped on none), and a sha256 over
both limits' bytes and the trace's rows.  The output of two versions of
subsup differs exactly where they differ in any of these, so a change
that must keep the iteration's bits is checked by one diff:

    PYTHONPATH=src python tools/iteration_cases.py > after.txt
    PYTHONPATH=../parent/src python tools/iteration_cases.py > before.txt
    diff before.txt after.txt

The cases: f = h = 0.5, F = t^5, H = t^0.5 (n = 3), bracket (0.01, 1) and
tol 1e-9, on icosphere 4 and 5 at a = c + 0.5 z for the benchmark's range
of c, icosphere 5 with a non-constant f or upper end, icosphere 6, flat
tori 16^3 and 32^3 with constant and variable a, the near-fold torus 8^3
(a = 1.0001) also cut at 5, 8 and 10 steps, and both shipped scenarios,
the sphere one also cut at 6 steps, the count its default run takes: a
run cut where it ends anyway is that run, line for line.
"""

import hashlib
import pathlib

import subsup
from subsup import ScalarNonlinearity, iterate_monotone, make_bracket
from subsup.iteration import DEFAULT_MAX_STEPS
from subsup.scenario import build_problem, load_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
SINE = "sin(6.283185307179586*x)"
COSINE = "cos(6.283185307179586*y)"


def benchmark_case(domain, a, f="0.5", upper="1"):
    """(problem, bracket, tol) with the given a, f and upper end."""
    field = lambda text: subsup.parse_coefficient(text, domain)  # noqa: E731
    problem = subsup.NonlinearProblem(
        domain, field(a), field(f), 0.5,
        ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
    )
    return problem, make_bracket(problem, domain.field(0.01), field(upper)), 1e-9


def shipped_case(name):
    scenario = load_scenario(SCENARIOS / name)
    _, problem, lower, upper = build_problem(scenario)
    return problem, make_bracket(problem, lower, upper, scenario.tol), scenario.tol


def run(name, problem, bracket, tol, max_steps=DEFAULT_MAX_STEPS):
    pair, trace = iterate_monotone(problem, bracket, tol=tol, max_steps=max_steps)
    digest = hashlib.sha256()
    for limit in (pair.u_star, pair.u_upper_star):
        digest.update(limit.values.tobytes())
    digest.update(repr(trace.rows()).encode())
    width = "-" if trace.enclosure_width is None else f"{trace.enclosure_width:.2e}"
    print(
        f"{name}: steps {trace.steps} restarts {trace.restarts} refusals "
        f"{trace.refusals} cg {trace.cg_iterations} converged {trace.converged} "
        f"width {width} sha256 {digest.hexdigest()}"
    )


def main():
    sphere = subsup.build_icosphere
    torus = lambda cells: subsup.build_flat_torus([(cells, 1.0)] * 3)  # noqa: E731
    for level in (4, 5):
        for c in ("1.95", "2.0", "2.036997641311417", "2.05"):
            run(f"ico{level} a={c}+0.5z", *benchmark_case(sphere(level), f"{c}+0.5*z"))
    run("ico5 f=0.5+0.3x", *benchmark_case(sphere(5), "2.0+0.5*z", f="0.5+0.3*x"))
    run("ico5 upper=1+0.1x", *benchmark_case(sphere(5), "2.0+0.5*z", upper="1+0.1*x"))
    run("ico6 a=2.0+0.5z", *benchmark_case(sphere(6), "2.0+0.5*z"))
    for a in ("1.96", "2.0", "2.04"):
        run(f"torus16 a={a}", *benchmark_case(torus(16), a))
    run(
        "torus16 a,f variable",
        *benchmark_case(torus(16), f"2+0.3*{SINE}", f=f"0.5+0.2*{COSINE}"),
    )
    run("torus32 a=1.9593627596061982", *benchmark_case(torus(32), "1.9593627596061982"))
    run("torus32 a variable", *benchmark_case(torus(32), f"2+0.3*{SINE}"))
    for max_steps in (DEFAULT_MAX_STEPS, 5, 8, 10):
        run(
            f"torus8 a=1.0001 max_steps={max_steps}",
            *benchmark_case(torus(8), "1.0001"), max_steps,
        )
    for name in ("torus_constant.json", "sphere_variable.json"):
        run(name, *shipped_case(name))
    run("sphere_variable.json max_steps=6", *shipped_case("sphere_variable.json"), 6)


if __name__ == "__main__":
    main()
