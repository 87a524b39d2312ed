import collections
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import subsup
from subsup import BracketError, ScalarNonlinearity, iterate_monotone, make_bracket
from subsup.cli import write_solution
from subsup.iteration import bracket_failures
from subsup.scenario import build_problem, load_scenario

from tests.conftest import make_constant_problem
from tests.test_linear_operator import csr_matvec_reference

SCENARIOS = ("scenarios/torus_constant.json", "scenarios/sphere_variable.json")


def newton_solve(problem, start, tol=1e-12, max_iter=100):
    """Damped Newton on G(u) = A u - S(u), independent of the iteration.

    Only valid for power-law F and H and strictly positive iterates, which
    is all the cross-check needs.
    """
    A = problem.linear.system_matrix.toarray()
    m = problem.domain.mass
    f = problem.f.values
    h = problem.h.values
    pF, pH = problem.F.p, problem.H.p
    u = start.copy()
    for _ in range(max_iter):
        s = m * (f * u**pF + h * u**pH)
        g = A @ u - s
        if np.abs(g).max() <= tol:
            return u
        jac = A - np.diag(m * (f * pF * u ** (pF - 1) + h * pH * u ** (pH - 1)))
        step = np.linalg.solve(jac, g)
        scale = 1.0
        while scale > 1e-6 and (u - scale * step).min() <= 0.0:
            scale *= 0.5  # stay in the positive cone
        u = u - scale * step
    raise AssertionError("newton oracle did not converge")


class TestDefect:
    def test_upper_constant_example(self, torus_problem, torus8):
        d = subsup.defect(torus_problem, torus8.field(1.0))
        # a*1 - f*F(1) - h*H(1) = 2 - 1 = 1, scaled by the vertex mass
        assert np.abs(d.values - torus8.mass).max() <= 1e-12

    def test_lower_constant_example(self, torus_problem, torus8):
        d = subsup.defect(torus_problem, torus8.field(0.01))
        expected = torus8.mass * (0.02 - 0.5 * 1e-10 - 0.5 * 0.1)
        assert np.abs(d.values - expected).max() <= 1e-15


def end_failure(problem, side, v, tol=1e-9):
    """The bracket rule's verdict on one end alone: its failure kind or None."""
    if side == "lower":
        failure = bracket_failures(problem, v, None, tol)[0]
    else:
        failure = bracket_failures(problem, None, v, tol)[1]
    return None if failure is None else failure.kind


class TestVerify:
    def test_constant_bracket(self, torus_problem, torus8):
        assert end_failure(torus_problem, "lower", torus8.field(0.01)) is None
        assert end_failure(torus_problem, "upper", torus8.field(1.0)) is None

    def test_wrong_sides_fail(self, torus_problem, torus8):
        # 0.5 sits above the fixed point: a*c > f F(c) + h H(c) fails there
        assert end_failure(torus_problem, "lower", torus8.field(0.5)) == "defect"
        assert end_failure(torus_problem, "upper", torus8.field(0.01)) == "defect"

    def test_solution_passes_both(self, torus_problem, torus8, c_star):
        u = torus8.field(c_star)
        assert end_failure(torus_problem, "lower", u) is None
        assert end_failure(torus_problem, "upper", u) is None

    def test_negative_candidate_rejected(self, torus_problem, torus8):
        assert end_failure(torus_problem, "lower", torus8.field(-0.01)) == "negative"

    def test_zero_verifies_but_cannot_seed_a_bracket(self, torus_problem, torus8):
        # power laws vanish at 0, so the defect is exactly zero there
        assert end_failure(torus_problem, "lower", torus8.field(0.0)) is None
        with pytest.raises(BracketError):
            make_bracket(torus_problem, torus8.field(0.0), torus8.field(1.0))


class TestMakeBracket:
    def test_valid(self, torus_problem, torus8):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        assert isinstance(br, subsup.Bracket)

    def test_negative_lower(self, torus_problem, torus8):
        lo = np.full(torus8.vertex_count, 0.01)
        lo[3] = -0.2
        with pytest.raises(BracketError, match="vertex 3"):
            make_bracket(torus_problem, torus8.field(lo), torus8.field(1.0))

    def test_identically_zero_lower(self, torus_problem, torus8):
        with pytest.raises(BracketError):
            make_bracket(torus_problem, torus8.field(0.0), torus8.field(1.0))

    def test_unordered_pair(self, torus_problem, torus8):
        with pytest.raises(BracketError):
            make_bracket(torus_problem, torus8.field(0.5), torus8.field(0.1))

    def test_lower_with_wrong_defect_sign(self, torus_problem, torus8):
        with pytest.raises(BracketError, match="lower"):
            make_bracket(torus_problem, torus8.field(0.5), torus8.field(1.0))

    def test_upper_with_wrong_defect_sign(self, torus_problem, torus8):
        with pytest.raises(BracketError, match="upper"):
            make_bracket(torus_problem, torus8.field(0.005), torus8.field(0.02))


class TestBracketFailures:
    def test_valid_bracket_has_none(self, torus_problem, torus8):
        assert bracket_failures(
            torus_problem, torus8.field(0.01), torus8.field(1.0), 1e-9
        ) == (None, None)

    def test_each_end_reports_its_first_failure(self, torus_problem, torus8):
        lo = np.full(torus8.vertex_count, 0.01)
        lo[3] = -0.2
        lower, upper = bracket_failures(
            torus_problem, torus8.field(lo), torus8.field(0.02), 1e-9
        )
        assert (lower.kind, lower.vertex) == ("negative", 3)
        assert upper.kind == "defect" and upper.defect < 0.0

    def test_unordered_names_the_largest_excess(self, torus_problem, torus8):
        lo = np.full(torus8.vertex_count, 0.01)
        lo[5], lo[7] = 2.0, 3.0
        lower, upper = bracket_failures(
            torus_problem, torus8.field(lo), torus8.field(1.0), 1e-9
        )
        assert (lower.kind, lower.vertex, upper) == ("unordered", 7, None)
        message = "^lower solution check: lower exceeds upper at vertex 7$"
        with pytest.raises(BracketError, match=message):
            make_bracket(torus_problem, torus8.field(lo), torus8.field(1.0))

    def test_zero_lower_fails_only_against_an_upper_end(self, torus_problem, torus8):
        zero = torus8.field(0.0)
        lower, _ = bracket_failures(torus_problem, zero, torus8.field(1.0), 1e-9)
        assert lower.kind == "zero"
        assert bracket_failures(torus_problem, zero, None, 1e-9) == (None, None)

    def test_make_bracket_raises_the_lower_failure_first(self, torus_problem, torus8):
        # 0.02 lies below the fixed point, so it is no upper solution, and
        # a peak of 0.5 at vertex 0 is no lower solution
        lo = np.full(torus8.vertex_count, 0.01)
        up = np.full(torus8.vertex_count, 0.02)
        lo[0] = up[0] = 0.5
        lower, upper = torus8.field(lo), torus8.field(up)
        failures = bracket_failures(torus_problem, lower, upper, 1e-9)
        assert [f.kind for f in failures] == ["defect", "defect"]
        assert failures[0].defect > 0.0
        message = (
            f"lower solution check: defect {failures[0].defect:.6e} "
            "of the wrong sign at vertex 0"
        )
        with pytest.raises(BracketError, match=f"^{re.escape(message)}$"):
            make_bracket(torus_problem, lower, upper)

    def test_tolerance_scales_with_the_end(self, torus_problem, torus8):
        # the lower defect at 0.5 is m (2*0.5 - 0.5*0.5^5 - 0.5*sqrt(0.5)) > 0
        d = float(subsup.defect(torus_problem, torus8.field(0.5)).values.max())
        scale = float(torus8.mass.max()) * 2.0 * 0.5
        just_below = 0.99 * d / scale
        assert end_failure(torus_problem, "lower", torus8.field(0.5), just_below) == "defect"
        assert end_failure(torus_problem, "lower", torus8.field(0.5), 1.01 * d / scale) is None

    @pytest.mark.parametrize("scale", [1e-12, 1e-8, 1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("kind", ["icosphere", "flat_torus"])
    def test_verdict_does_not_depend_on_mesh_scale(self, kind, scale):
        # a = 2, f = h = 1/2: [0.01, 1] brackets the fixed point c* ~ 0.0625,
        # 0.03 < c* is no upper end and 0.1 > c* no lower end, at any radius
        # or torus length
        if kind == "icosphere":
            domain = subsup.build_icosphere(3, radius=scale)
        else:
            domain = subsup.build_flat_torus([(8, scale)] * 3)
        problem = make_constant_problem(domain)

        def verdict(lower, upper):
            failures = bracket_failures(
                problem, domain.field(lower), domain.field(upper), 1e-9
            )
            return [None if f is None else f.kind for f in failures]

        assert verdict(0.01, 1.0) == [None, None]
        assert verdict(0.01, 0.03) == [None, "defect"]
        assert verdict(0.1, 1.0) == ["defect", None]


class TestIterateMonotone:
    def test_constant_oracle(self, torus_problem, torus8, c_star):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        assert trace.converged
        assert np.abs(pair.u_star.values - c_star).max() <= 1e-8
        assert pair.u_star.values.max() - pair.u_star.values.min() <= 1e-7
        assert pair.coincide

    def test_fixed_point_converges_immediately(self, torus_problem, torus8, c_star):
        u = torus8.field(c_star)
        br = make_bracket(torus_problem, u, u)
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        assert trace.converged
        assert trace.steps <= 1

    def test_variable_coefficient_sphere(self, icosphere3):
        a = subsup.parse_coefficient("2+0.5*z", icosphere3)
        prob = subsup.NonlinearProblem(
            icosphere3, a, 0.5, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        br = make_bracket(prob, icosphere3.field(0.01), icosphere3.field(1.0))
        pair, trace = iterate_monotone(prob, br, tol=1e-9)
        assert trace.converged
        assert pair.u_star.values.min() > 0.0
        # sandwich
        assert pair.u_star.values.min() >= 0.01 - 1e-9
        assert pair.u_upper_star.values.max() <= 1.0 + 1e-9
        assert np.all(pair.u_star.values <= pair.u_upper_star.values + 1e-9)

    def test_matches_newton_oracle(self, icosphere2):
        a = subsup.parse_coefficient("2+0.5*z", icosphere2)
        prob = subsup.NonlinearProblem(
            icosphere2, a, 0.5, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        br = make_bracket(prob, icosphere2.field(0.01), icosphere2.field(1.0))
        pair, _ = iterate_monotone(prob, br, tol=1e-10)
        expected = newton_solve(prob, np.full(icosphere2.vertex_count, 0.1))
        assert np.abs(pair.u_star.values - expected).max() <= 1e-7

    def test_brackets_any_newton_fixed_point(self, icosphere2):
        # minimality/maximality: independently found interior fixed points
        # sit between u_* and u^*
        a = subsup.parse_coefficient("2+0.5*z", icosphere2)
        prob = subsup.NonlinearProblem(
            icosphere2, a, 0.5, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        br = make_bracket(prob, icosphere2.field(0.01), icosphere2.field(1.0))
        pair, _ = iterate_monotone(prob, br, tol=1e-10)
        rng = np.random.default_rng(53)
        for _ in range(3):
            start = rng.uniform(0.02, 0.9, icosphere2.vertex_count)
            w = newton_solve(prob, start)
            assert np.all(pair.u_star.values <= w + 1e-8)
            assert np.all(w <= pair.u_upper_star.values + 1e-8)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_limits_are_the_extreme_of_three_fixed_points(self, side, monkeypatch):
        # a = f = h = 1, F = 0: on constant fields the map is u -> H(u).
        # The lower table has fixed points 0.1556 (stable), 0.1722
        # (unstable) and 1/3 (stable).  The point 0.19 injected as the
        # lower side's first restart point lies above 0.1722, where it is
        # still a lower solution and H has slope 0.5 < 1; the slope 6.9
        # between the iterate and the point is what rules it out.
        # "upper" is the mirror image t -> 1 - t, with fixed points 2/3,
        # 0.8278 and 0.8444, and the point 0.81.
        ts = np.array([0.0, 0.01, 0.15, 0.17, 0.19, 0.2, 1.0])
        hs = np.array([0.0, 0.029, 0.155, 0.157, 0.295, 0.3, 0.5])
        minimal, maximal = 0.14 / 0.9, 1.0 / 3.0
        bracket, overshoot, call = (0.01, 1.0), 0.19, 1
        if side == "upper":
            ts, hs = 1.0 - ts[::-1], 1.0 - hs[::-1]
            minimal, maximal = 1.0 - maximal, 1.0 - minimal
            bracket, overshoot, call = (0.5, 0.99), 0.81, 2
        domain = subsup.build_flat_torus([(4, 1.0)] * 3)
        prob = subsup.NonlinearProblem(
            domain, 1.0, 1.0, 1.0,
            ScalarNonlinearity.table([0.0, 1.0], [0.0, 0.0]),
            ScalarNonlinearity.table(ts, hs),
            n=3, q=0.5,
        )
        br = make_bracket(prob, *(domain.field(v) for v in bracket))
        pair, trace = iterate_monotone(prob, br, tol=1e-9)
        assert trace.converged and min(trace.restarts) > 0
        assert np.abs(pair.u_star.values - minimal).max() <= 1e-8
        assert np.abs(pair.u_upper_star.values - maximal).max() <= 1e-8
        assert not pair.coincide
        # step 2 tries the lower side's point first, then the upper one's
        point = np.full(domain.vertex_count, overshoot)
        def inject(solve):
            return point.copy() if solve.number == call else None

        replace_shifted_points(monkeypatch, inject)
        rates = spy_contraction_rate(monkeypatch)
        pair, _ = iterate_monotone(prob, br, tol=1e-9)
        (rate,) = [r for v, r in rates if np.array_equal(v, point)]
        assert rate > 1.0
        assert np.abs(pair.u_star.values - minimal).max() <= 1e-8
        assert np.abs(pair.u_upper_star.values - maximal).max() <= 1e-8
        # the defect bound alone passes a point past the extreme solution
        replace_shifted_points(monkeypatch, inject)
        spy_contraction_rate(monkeypatch, rate=0.0)
        pair, _ = iterate_monotone(prob, br, tol=1e-9)
        assert pair.coincide

    def test_cg_iterations_are_counted_per_side(self, monkeypatch, icosphere3):
        # with max_steps = 2 and both points of step 2 kept, the solves run
        # in this order: the plain steps of both sides, then their shifted
        # solves.  With constant f, h and bracket ends, S(upper) is
        # parallel to S(lower), so the upper side's first solve starts at
        # its solution and takes no iteration; every other solve takes some.
        solves = spy_solves(monkeypatch)
        problem = sphere3_problem(icosphere3)
        br = make_bracket(problem, icosphere3.field(0.01), icosphere3.field(1.0))
        _, trace = iterate_monotone(problem, br, tol=1e-9, max_steps=2)
        iterations = [count for _, count in solves]
        assert trace.restarts == (1, 1) and trace.refusals == (0, 0)
        assert len(iterations) == 4 and iterations[1] == 0
        assert min(iterations[:1] + iterations[2:]) > 0
        assert trace.cg_iterations == (sum(iterations[0::2]), sum(iterations[1::2]))

    def test_chains_are_monotone(self, torus_problem, torus8):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        _, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        lo_min = [rec.min_u for rec in trace.lower_steps]
        up_max = [rec.max_u for rec in trace.upper_steps]
        assert all(b >= a - 1e-12 for a, b in zip(lo_min, lo_min[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(up_max, up_max[1:]))

    def test_max_steps_exhaustion_is_flagged(self, torus_problem, torus8):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-9, max_steps=2)
        assert not trace.converged
        assert trace.steps == 2
        assert pair.u_star.values.min() > 0.0

    def test_residuals_reported(self, torus_problem, torus8):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        pair, _ = iterate_monotone(torus_problem, br, tol=1e-9)
        scale = np.abs(torus8.mass * 2.0 * pair.u_star.values).max()
        assert 0.0 <= pair.residual_lower <= 10.0 * 1e-9 * scale
        assert 0.0 <= pair.residual_upper <= 10.0 * 1e-9 * scale

    def test_parameter_validation(self, torus_problem, torus8):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        with pytest.raises(ValueError):
            iterate_monotone(torus_problem, br, tol=0.0)
        with pytest.raises(ValueError):
            iterate_monotone(torus_problem, br, tol=1e-9, max_steps=0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_rejects_tol_that_is_not_finite_and_positive(self, torus_problem, torus8, tol):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        with pytest.raises(ValueError, match="tol"):
            iterate_monotone(torus_problem, br, tol=tol)

    def test_uneven_convergence_freezes_the_converged_side(
        self, torus_problem, torus8, c_star, tmp_path
    ):
        # the upper end is the fixed point, so it converges in one step
        # while the lower side keeps climbing towards it
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(c_star))
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        assert trace.converged
        assert len(trace.upper_steps) == 1
        assert len(trace.lower_steps) == trace.steps > 1
        write_solution(str(tmp_path), pair, trace, {})
        rows = (tmp_path / "trace.csv").read_text().strip().split("\n")[1:]
        assert [tuple(r.split(",")[:2]) for r in rows] == (
            [("1", "lower"), ("1", "upper")]
            + [(str(k), "lower") for k in range(2, trace.steps + 1)]
        )
        # the upper side stays frozen at its one iterate
        assert pair.u_upper_star.values.max() == trace.upper_steps[0].max_u
        assert pair.u_upper_star.values.min() == trace.upper_steps[0].min_u
        assert pair.residual_upper == trace.upper_steps[0].defect_norm
        assert np.abs(pair.u_star.values - c_star).max() <= 1e-8

    def test_rejects_failing_alpha2(self, torus8):
        prob = subsup.NonlinearProblem(
            torus8, 2.0, 0.0, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        br = subsup.Bracket(torus8.field(0.01), torus8.field(1.0))
        with pytest.raises(ValueError, match="f"):
            iterate_monotone(prob, br)

    def test_rejects_non_m_matrix_domain(self, tmp_path):
        from tests.test_geometry import write_off

        verts = [(0, 0, 0), (4, 0, 0), (2, 0.2, 0), (2, -0.2, 0)]
        d = subsup.load_off(
            write_off(tmp_path / "o.off", verts, [(0, 1, 2), (1, 0, 3)])
        )
        prob = make_constant_problem(d)
        br = subsup.Bracket(d.field(0.01), d.field(1.0))
        with pytest.raises(ValueError, match="[Mm].matrix"):
            iterate_monotone(prob, br)


def x0_and_iterations(psi, x0, shift, x, report):
    return x0.copy(), report.iterations


def spy_solves(monkeypatch, record=x0_and_iterations):
    """Record every T solve of the iteration, in order.

    Each entry is record(psi, x0, shift, x, report) for a solve of psi
    from x0, shifted by shift (None for a plain step), that returned x;
    by default (x0, CG iterations).
    """
    real = subsup.iteration.solve_T
    solves = []

    def solve_T(problem, psi, **kwargs):
        x, report = real(problem, psi, **kwargs)
        solves.append(record(psi, kwargs["x0"], kwargs.get("shift"), x, report))
        return x, report

    monkeypatch.setattr(subsup.iteration, "solve_T", solve_T)
    return solves


ShiftedSolve = collections.namedtuple("ShiftedSolve", "number side shared x v")


def replace_shifted_points(monkeypatch, replace=lambda solve: None):
    """Route the iteration's shifted solves through replace; return their records.

    A shifted solve is a solve_T call with a shift.  They are numbered
    from 1, and step 2, the first step with any, solves the lower side's
    point first, then the upper one's.  replace gets each solve's
    ShiftedSolve: its number, its side, whether it started from the
    shared start, the side's iterate x and the solution v.  It returns
    the point the solve gives instead, or None for v.  A given point
    keeps the solve's report but for its J v, J = A - diag(shift), from
    which the upper side's solve may start.  Each record is a solve's
    ShiftedSolve with v what it gave; a failed solve's ConvergenceError
    passes through and leaves none.
    """
    real_sides, real_solve = subsup.iteration._solve_sides, subsup.iteration.solve_T
    iterates, records = {}, []

    def solve_sides(problem, u, *args):
        iterates["u"] = u
        return real_sides(problem, u, *args)

    def solve_T(problem, b, **kwargs):
        v, report = real_solve(problem, b, **kwargs)
        shift = kwargs.get("shift")
        if shift is None:
            return v, report
        x0, u = kwargs["x0"], iterates["u"]
        side = 0 if x0 is u[0] else 1
        solve = ShiftedSolve(len(records) + 1, side, x0 is not u[side], u[side], v)
        point = replace(solve)
        if point is not None:
            jv = problem.domain.L.product(point, problem.diagonal - shift)
            v, report = point, dataclasses.replace(report, Ax=jv)
        records.append(solve._replace(v=v))
        return v, report

    monkeypatch.setattr(subsup.iteration, "_solve_sides", solve_sides)
    monkeypatch.setattr(subsup.iteration, "solve_T", solve_T)
    return records


class TestSharedStart:
    # every upper solve starts from rho v_l, v_l the lower side's solution
    # of the same system J v = b and rho = b_u.b_l / b_l.b_l, where that
    # start's residual beats the side's own start's.  At step 1, J = A and
    # b = S(x), and the solves run lower first, so it is the second one
    def test_shipped_sphere_upper_first_solve_takes_no_iteration(self, monkeypatch):
        # constant f, h and bracket ends: S(upper) is parallel to S(lower)
        problem, br, tol = shipped(SCENARIOS[1])
        solves = spy_solves(monkeypatch)
        iterate_monotone(problem, br, tol=tol)
        (_, lower_iterations), (x0, upper_iterations) = solves[:2]
        assert lower_iterations > 0 and upper_iterations == 0
        assert not np.array_equal(x0, br.upper.values)

    @pytest.mark.parametrize(
        "f,upper", [("0.5", "1+0.1*x"), ("0.5+0.3*x", "1"), ("0.5+0.3*x", "1+0.1*x")]
    )
    def test_a_start_not_parallel_takes_no_more_iterations(
        self, f, upper, monkeypatch, icosphere3
    ):
        problem = subsup.NonlinearProblem(
            icosphere3, subsup.parse_coefficient("2+0.5*z", icosphere3),
            subsup.parse_coefficient(f, icosphere3), 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        br = make_bracket(
            problem, icosphere3.field(0.01), subsup.parse_coefficient(upper, icosphere3)
        )
        psi_l, psi = (subsup.apply_S(problem, v.values) for v in (br.lower, br.upper))
        cosine = (psi.values @ psi_l.values) / (
            np.linalg.norm(psi.values) * np.linalg.norm(psi_l.values)
        )
        assert cosine < 1.0 - 1e-6
        _, own = subsup.solve_T(problem.linear, psi, tol=1e-11, x0=br.upper.values)
        solves = spy_solves(monkeypatch)
        iterate_monotone(problem, br, tol=1e-9)
        x0, iterations = solves[1]
        assert np.array_equal(x0, upper_start(problem, br, 1e-11)[0])
        assert not np.array_equal(x0, br.upper.values)
        assert iterations <= own.iterations

    def test_an_upper_end_that_solves_its_equation_keeps_its_start(
        self, monkeypatch, torus_problem, torus8, c_star
    ):
        # a lower end that is not constant makes S(lower) not parallel to
        # S(upper), so rho x_l leaves a residual far above the upper end's
        lower = subsup.parse_coefficient("0.01+0.0005*sin(6.283185307179586*x)", torus8)
        br = make_bracket(torus_problem, lower, torus8.field(c_star))
        psi = subsup.apply_S(torus_problem, br.upper.values)
        _, own = subsup.solve_T(torus_problem.linear, psi, tol=1e-11, x0=br.upper.values)
        assert own.iterations == 0  # within the linear tol from the start
        solves = spy_solves(monkeypatch)
        iterate_monotone(torus_problem, br, tol=1e-9, max_steps=1)
        x0, iterations = solves[1]
        assert np.array_equal(x0, br.upper.values) and iterations == 0

    # after step 1, each step solves both sides' shifted points with one J
    @pytest.mark.parametrize("path", SCENARIOS)
    def test_every_upper_solve_starts_from_the_lower_point(self, path, monkeypatch):
        problem, br, tol = shipped(path)

        def record(psi, x0, shift, x, report):  # (b, x0, v) of J v = b
            return shift is not None and (psi.values.copy(), x0.copy(), x.copy())

        solves = spy_solves(monkeypatch, record)
        _, trace = iterate_monotone(problem, br, tol=tol)
        shifted = [entry for entry in solves if entry]
        assert trace.steps == 6 and len(shifted) == 2 * (trace.steps - 1)
        for (b_l, _, v_l), (b_u, x0, _) in zip(shifted[0::2], shifted[1::2]):
            rho = dot(b_u, b_l) / dot(b_l, b_l)
            assert np.array_equal(x0, rho * v_l)
        assert trace.cg_iterations[1] <= 1

    @pytest.mark.parametrize("by", ["certificate", "ordering"])
    def test_a_refused_shared_point_is_solved_again_from_the_iterate(
        self, by, monkeypatch
    ):
        # the upper side's first candidate, its step-2 point from the shared
        # start, is refused by the certificate, or replaced by half the
        # lower side's point and passed by it, which the ordering refuses:
        # the side solves again from its iterate, and that point is kept,
        # as without the shared start
        problem, br, tol = shipped(SCENARIOS[1])
        _, unforced = iterate_monotone(problem, br, tol=tol)
        real_certified = subsup.iteration._certified
        refused = []

        def replace(solve):
            if solve.shared and not refused:
                v_l = records[-1].v  # the lower side's point of that step
                refused.append(solve.v if by == "certificate" else 0.5 * v_l)
                return refused[0]
            return None

        def certified(problem, sign, v, u, image, tol):
            if refused and v is refused[0]:
                return by == "ordering"
            return real_certified(problem, sign, v, u, image, tol)

        records = replace_shifted_points(monkeypatch, replace)
        monkeypatch.setattr(subsup.iteration, "_certified", certified)
        solves = spy_solves(
            monkeypatch,
            lambda psi, x0, shift, x, report: (x0.copy(), x.copy(), report.iterations),
        )
        _, trace = iterate_monotone(problem, br, tol=tol)
        # plain steps of both sides, then step 2's lower point and the
        # upper one's from the shared start and from the iterate
        (_, upper, _), _, (shared, _, _), (own, _, _) = solves[1:5]
        assert not np.array_equal(shared, upper) and np.array_equal(own, upper)
        assert (trace.steps, trace.restarts, trace.refusals) == (
            unforced.steps, unforced.restarts, unforced.refusals
        )
        # cg counts the discarded attempt too
        assert sum(trace.cg_iterations) == sum(count for _, _, count in solves)

    @pytest.mark.parametrize("case", ["near_fold_torus", "icosphere4_f", *SCENARIOS])
    def test_sharing_keeps_steps_restarts_and_refusals(self, case, monkeypatch, torus8):
        if case == "near_fold_torus":
            problem, br, tol = benchmark_problem(torus8, "1.0001")
        elif case == "icosphere4_f":
            domain = subsup.build_icosphere(4, 1.0)
            problem = subsup.NonlinearProblem(
                domain, subsup.parse_coefficient("2+0.5*z", domain),
                subsup.parse_coefficient("0.5+0.3*x", domain), 0.5,
                ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
            )
            br, tol = make_bracket(problem, domain.field(0.01), domain.field(1.0)), 1e-9
        else:
            problem, br, tol = shipped(case)
        pair, shared = iterate_monotone(problem, br, tol=tol)
        # every solve from its side's own start
        monkeypatch.setattr(
            subsup.iteration, "_shared_start", lambda rho, shared, own, b: own
        )
        own_pair, own = iterate_monotone(problem, br, tol=tol)
        assert (shared.steps, shared.restarts, shared.refusals) == (
            own.steps, own.restarts, own.refusals
        )
        assert shared.cg_iterations[1] < own.cg_iterations[1]
        for name in ("u_star", "u_upper_star"):
            limits = (getattr(p, name).values for p in (pair, own_pair))
            assert np.abs(np.subtract(*limits)).max() <= 10.0 * tol


def bend_first_solve(monkeypatch, start, value):
    """Make the first plain T solve warm-started at `start` return `value`.

    The iteration warm-starts every plain solve at the previous iterate,
    and the upper side's first one at upper_start, so `start` picks the
    first plain step of one side from that iterate; shifted solves are
    left alone.
    """
    real = subsup.iteration.solve_T
    bent = []

    def solve_T(problem, psi, **kwargs):
        u, report = real(problem, psi, **kwargs)
        if not bent and kwargs.get("shift") is None and np.all(kwargs["x0"] == start):
            bent.append(True)
            return np.full_like(u, value), report
        return u, report

    monkeypatch.setattr(subsup.iteration, "solve_T", solve_T)


class TestOrderingError:
    def test_lower_step_going_down(self, monkeypatch, torus_problem, torus8):
        bend_first_solve(monkeypatch, 0.01, 0.009)
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        with pytest.raises(
            subsup.OrderingError, match="lower sequence not monotone at step 1"
        ):
            iterate_monotone(torus_problem, br, tol=1e-9)

    def test_lower_crossing_upper(self, monkeypatch, torus_problem, torus8):
        # the upper side may descend, but not below the lower side
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        start, _ = upper_start(torus_problem, br, 1e-11)
        bend_first_solve(monkeypatch, start, 0.005)
        with pytest.raises(subsup.OrderingError, match="lower above upper at step 1"):
            iterate_monotone(torus_problem, br, tol=1e-9, max_steps=1)

    def test_sandwich_catches_a_drift_past_the_input_bracket(
        self, monkeypatch, torus_problem, torus8
    ):
        # the lower side goes down by 0.6 slack at each of two plain steps,
        # which no step check refuses, and ends 1.2 slack below its bracket
        # end; a tol below 0.6 slack keeps it running after the first, and
        # a refused certificate makes step 2 a plain step again
        slack = subsup.iteration.ORDERING_SLACK  # max|upper| = 1
        first, second = 0.01 - 0.6 * slack, 0.01 - 1.2 * slack
        bend_first_solve(monkeypatch, 0.01, first)
        bend_first_solve(monkeypatch, first, second)
        spy_certificate(monkeypatch, lambda sign, v: False)
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        with pytest.raises(subsup.OrderingError, match="sandwich violated by 1.2"):
            iterate_monotone(torus_problem, br, tol=0.1 * slack, max_steps=2)

    def test_cli_reports_the_violation(self, monkeypatch, tmp_scenario, tmp_path, capsys):
        from subsup.cli import main
        from tests.conftest import base_torus_doc

        bend_first_solve(monkeypatch, 0.01, 0.009)
        out = tmp_path / "run"
        assert main(["solve", tmp_scenario(base_torus_doc()), "--out", str(out)]) == 1
        assert "chain ordering violated" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


    def test_slack_follows_a_small_upper_end(self, monkeypatch, torus8):
        # h = 0.01 puts the fixed point near 6e-6, so [1e-6, 1e-3] is a
        # bracket; a lower step going down by 1e-11 exceeds 1e-9 * max|upper|
        prob = subsup.NonlinearProblem(
            torus8, 2.0, 0.5, 0.01,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        br = make_bracket(prob, torus8.field(1e-6), torus8.field(1e-3))
        bend_first_solve(monkeypatch, 1e-6, 1e-6 - 1e-11)
        with pytest.raises(
            subsup.OrderingError, match="lower sequence not monotone at step 1"
        ):
            iterate_monotone(prob, br, tol=1e-9)


def dot(x, y):
    # the iteration's reductions, which call no BLAS (linear_operator._dot)
    return np.einsum("i,i->", x, y)


def norm(x):
    return np.sqrt(dot(x, x))


def upper_start(problem, bracket, linear_tol):
    """(x0, A x0) of the upper side's first solve in iterate_monotone.

    That is rho x_l, x_l = T(S(lower)) and rho = S(upper).S(lower) /
    S(lower).S(lower), with A x0 = rho A x_l, where its residual is below
    the bracket end's, and otherwise the bracket end, A x0 left to solve_T.
    """
    lower, upper = bracket.lower.values, bracket.upper.values
    psi_l, psi_u = (subsup.apply_S(problem, v) for v in (lower, upper))
    x_l, report = subsup.solve_T(problem.linear, psi_l, tol=linear_tol, x0=lower)
    psi_l, psi_u = psi_l.values, psi_u.values
    rho = dot(psi_u, psi_l) / dot(psi_l, psi_l)
    own = csr_matvec_reference(problem.linear.system_matrix, upper)
    if norm(psi_u - rho * report.Ax) < norm(psi_u - own):
        return rho * x_l, rho * report.Ax
    return upper, None


def plain_iteration(problem, bracket, tol, linear_tol):
    """Trace rows and limits of u_{k+1} = T(S(u_k)) without restarts.

    Each side runs on its own until its max change is <= tol, the upper
    one's first solve from upper_start; the rows are then interleaved as
    IterationTrace.rows() orders them.
    """
    A = problem.linear.system_matrix
    rows, limits = [], []
    for seq, start in (("lower", bracket.lower), ("upper", bracket.upper)):
        u, k, change = start.values, 0, np.inf
        while change > tol:
            k += 1
            psi = subsup.apply_S(problem, u)
            x0, ax0 = u, None
            if k == 1 and seq == "upper":
                x0, ax0 = upper_start(problem, bracket, linear_tol)
            x, _ = subsup.solve_T(problem.linear, psi, tol=linear_tol, x0=x0, Ax0=ax0)
            change = float(np.abs(x - u).max())
            u = x
            Au = csr_matvec_reference(A, u)
            resid = np.abs(Au - subsup.apply_S(problem, x).values).max()
            rows.append((k, seq, change, float(u.min()), float(u.max()), float(resid)))
        limits.append(u)
    rows.sort(key=lambda row: (row[0], row[1] != "lower"))
    return rows, limits


def shipped(path):
    scenario = load_scenario(path)
    _, problem, lower, upper = build_problem(scenario)
    return problem, make_bracket(problem, lower, upper, scenario.tol), scenario.tol


def benchmark_problem(domain, a):
    """(problem, bracket, tol) of the benchmark's scenario on domain."""
    problem = subsup.NonlinearProblem(
        domain, subsup.parse_coefficient(a, domain), 0.5, 0.5,
        ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
    )
    return problem, make_bracket(problem, domain.field(0.01), domain.field(1.0)), 1e-9


def sphere3_problem(icosphere3):
    a = subsup.parse_coefficient("2+0.5*z", icosphere3)
    return subsup.NonlinearProblem(
        icosphere3, a, 0.5, 0.5,
        ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
    )


def spy_certificate(monkeypatch, verdict=None):
    """Record (sign, point, tol, verdict) of every restart certificate.

    With a verdict, verdict(sign, point) replaces the certificate's.
    """
    real = subsup.iteration._certified
    calls = []

    def certified(problem, sign, v, u, image, tol):
        if verdict is None:
            result = real(problem, sign, v, u, image, tol)
        else:
            result = verdict(sign, v)
        calls.append((sign, v, tol, result))
        return result

    monkeypatch.setattr(subsup.iteration, "_certified", certified)
    return calls


def spy_contraction_rate(monkeypatch, rate=None):
    """Record (point, rate) for every contraction rate the iteration computes.

    With a rate, it replaces the computed one for every point.
    """
    real = subsup.iteration._contraction_rate
    rates = []

    def contraction_rate(problem, v, u, av):
        rates.append((v, real(problem, v, u, av) if rate is None else rate))
        return rates[-1][1]

    monkeypatch.setattr(subsup.iteration, "_contraction_rate", contraction_rate)
    return rates


def spy_restarts(monkeypatch):
    """Record (side, point) for every point the iteration keeps."""
    real = subsup.iteration._kept_points
    accepted = []

    def kept_points(*args):
        tried = real(*args)
        accepted.extend((i, p[0].copy()) for i, p in tried.items() if p is not None)
        return tried

    monkeypatch.setattr(subsup.iteration, "_kept_points", kept_points)
    return accepted


class TestRestarts:
    @pytest.mark.parametrize("case", ["torus8", "icosphere3"])
    def test_all_rejected_is_the_plain_iteration(self, case, monkeypatch, request):
        domain = request.getfixturevalue(case)
        if case == "torus8":
            problem = make_constant_problem(domain)
        else:
            problem = sphere3_problem(domain)
        br = make_bracket(problem, domain.field(0.01), domain.field(1.0))
        calls = spy_certificate(monkeypatch, lambda sign, v: False)
        records = replace_shifted_points(monkeypatch)
        pair, trace = iterate_monotone(problem, br, tol=1e-9)
        rows, (lower, upper) = plain_iteration(problem, br, 1e-9, 1e-11)
        assert calls and trace.restarts == (0, 0)
        # every point tried is refused, and a refused side takes its plain
        # step; an upper point from the shared start is discarded when
        # refused, and only the attempt from the iterate after it counts
        shared = [solve.v for solve in records if solve.shared]
        own = [call for call in calls if not any(call[1] is v for v in shared)]
        assert shared and len(own) < len(calls)
        assert trace.refusals == tuple(
            sum(call[0] == sign for call in own) for sign in (1, -1)
        )
        assert trace.steps == 29
        assert trace.rows() == rows
        assert np.array_equal(pair.u_star.values, lower)
        assert np.array_equal(pair.u_upper_star.values, upper)

    @pytest.mark.parametrize("path", SCENARIOS)
    def test_overshooting_points_are_rejected(self, path, monkeypatch):
        # three times the shifted step lands past the limit, on the far
        # side of the extreme solution
        problem, br, tol = shipped(path)
        replace_shifted_points(
            monkeypatch, lambda solve: solve.x + 3.0 * (solve.v - solve.x)
        )
        calls = spy_certificate(monkeypatch)
        pair, trace = iterate_monotone(problem, br, tol=tol)
        _, (lower, upper) = plain_iteration(problem, br, tol, tol / 100.0)
        assert calls and trace.restarts == (0, 0)
        assert np.array_equal(pair.u_star.values, lower)
        assert np.array_equal(pair.u_upper_star.values, upper)

    @pytest.mark.parametrize("path", SCENARIOS)
    def test_restart_points_stay_on_their_side_of_the_plain_limits(
        self, path, monkeypatch
    ):
        # the oracle: the restart-free iteration's limits, which every
        # accepted lower (upper) point must not pass beyond the slack; the
        # plain limits stop up to about tol short of the extreme solutions
        problem, br, tol = shipped(path)
        accepted = spy_restarts(monkeypatch)
        _, trace = iterate_monotone(problem, br, tol=tol)
        _, limits = plain_iteration(problem, br, tol, tol / 100.0)
        slack = subsup.iteration.ORDERING_SLACK * np.abs(br.upper.values).max()
        assert len(accepted) == sum(trace.restarts) > 0
        for side, point in accepted:
            sign = 1.0 if side == 0 else -1.0
            assert (sign * (point - limits[side])).max() <= slack

    @pytest.mark.parametrize("path", SCENARIOS)
    def test_shipped_scenarios_restart(self, path, monkeypatch):
        problem, br, tol = shipped(path)
        calls = spy_certificate(monkeypatch)
        accepted = spy_restarts(monkeypatch)
        pair, trace = iterate_monotone(problem, br, tol=tol)
        assert trace.converged
        assert min(trace.restarts) > 0
        assert max(len(trace.lower_steps), len(trace.upper_steps)) <= 8
        # the certificate implies the bracket rule at its tol, the run's
        # tol or tighter: every accepted point passes the rule there
        (restart_tol,) = {call_tol for _, _, call_tol, _ in calls}
        assert restart_tol <= tol
        assert len(accepted) == sum(trace.restarts)
        for side, point in accepted:
            ends = (point, None) if side == 0 else (None, point)
            assert bracket_failures(problem, *ends, restart_tol) == (None, None)
        _, (lower, upper) = plain_iteration(problem, br, tol, tol / 100.0)
        assert np.abs(pair.u_star.values - lower).max() <= 10.0 * tol
        assert np.abs(pair.u_upper_star.values - upper).max() <= 10.0 * tol
        assert (pair.u_upper_star.values - pair.u_star.values).max() < 1e-11

    def test_a_kept_point_is_the_step(self, monkeypatch):
        # icosphere 5 with a = c + 0.5 z, c drawn as the benchmark's seed-0
        # sphere: every point tried is kept, so each step of a side is one
        # solve, and the run stops on step 6's kept points, a verified pair
        # narrower than 1e-11
        problem, br, _ = benchmark_problem(
            subsup.build_icosphere(5, 1.0), "2.036997641311417+0.5*z"
        )
        solves = []
        real = subsup.iteration.solve_T

        def solve_T(*args, **kwargs):
            solves.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(subsup.iteration, "solve_T", solve_T)
        pair, trace = iterate_monotone(problem, br, tol=1e-9)
        assert trace.converged and trace.steps == 6
        assert trace.restarts == (5, 5) and trace.refusals == (0, 0)
        assert len(trace.lower_steps) == len(trace.upper_steps) == 6
        assert len(solves) == 6 + 6
        assert trace.enclosure_width < 1e-11
        assert sum(trace.cg_iterations) <= 60
        assert (pair.u_upper_star.values - pair.u_star.values).max() < 1e-11

    def test_a_restart_must_keep_the_pair_ordered(
        self, monkeypatch, torus_problem, torus8
    ):
        # a certificate that passed a lower point above the upper iterate
        # would let the chain cross; the restart is refused instead
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        replace_shifted_points(monkeypatch, lambda solve: solve.x + 1.0)
        calls = spy_certificate(monkeypatch, lambda sign, v: sign == 1)
        _, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        rows, _ = plain_iteration(torus_problem, br, 1e-9, 1e-11)
        assert calls and trace.restarts == (0, 0)
        assert trace.rows() == rows

    def test_a_kept_point_must_not_move_its_side_back(
        self, monkeypatch, torus_problem, torus8, c_star
    ):
        # Lambda < 1 does not imply v >= u for a lower point (v <= u for an
        # upper one); a certified point that moves its side back beyond
        # the slack is refused, and the side takes its plain step.  Lower
        # iterates lie below the fixed point c*, upper ones above.
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        records = replace_shifted_points(
            monkeypatch,
            lambda solve: solve.x + (-1e-6 if solve.x.max() < c_star else 1e-6),
        )
        calls = spy_certificate(monkeypatch, lambda sign, v: True)
        _, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        rows, _ = plain_iteration(torus_problem, br, 1e-9, 1e-11)
        assert calls and trace.restarts == (0, 0)
        # a refused upper point from the shared start is discarded, and
        # only the attempt from the iterate after it counts
        shared = [solve.v for solve in records if solve.shared]
        own = [call for call in calls if not any(call[1] is v for v in shared)]
        assert shared and len(own) < len(calls)
        assert trace.refusals == tuple(
            sum(call[0] == sign for call in own) for sign in (1, -1)
        )
        assert trace.rows() == rows

    @pytest.mark.parametrize(
        "case,c,tol",
        [
            ("torus8", 2.0, 3e-3),
            ("torus8", 3.0, 3e-4),
            ("icosphere3", 2.0, 3e-3),
            ("icosphere3", 3.0, 3e-4),
            ("icosphere3", 3.0, 1e-3),
        ],
    )
    def test_loose_tol_restarts_keep_the_chain(self, case, c, tol, request):
        # verified at these tols alone, a restart point kept a defect of the
        # wrong sign that the next step turned into a move back beyond slack
        domain = request.getfixturevalue(case)
        a = subsup.parse_coefficient(f"{c}+0.5*z", domain) if case != "torus8" else c
        problem = subsup.NonlinearProblem(
            domain, a, 0.5, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        br = make_bracket(problem, domain.field(0.01), domain.field(1.0), tol)
        _, trace = iterate_monotone(problem, br, tol=tol)
        assert trace.converged and sum(trace.restarts) > 0

    @pytest.mark.parametrize("path", SCENARIOS)
    def test_each_candidate_is_evaluated_once(self, path, monkeypatch):
        # make_bracket forms L v and S(v) at both ends, and the iteration S
        # at both; then each plain step one T and one S, each shifted solve
        # one T, which reuses its iterate's S(x) and A x, and each point
        # that moves its side by more than tol one L v and one S, shared by
        # the certificate and the step the kept point becomes.  Inside the
        # iteration a Field is made only for each S(v), each shifted
        # solve's right-hand side and the two limits: no iterate is wrapped.
        scenario = load_scenario(path)
        _, problem, lower, upper = build_problem(scenario)
        names = ["edge_product", "apply_S", "solve_T", "Field"]
        counts = dict.fromkeys(names, 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        layout = subsup.geometry.SlotLayout
        monkeypatch.setattr(
            layout, "edge_product", counted("edge_product", layout.edge_product)
        )
        field = subsup.geometry.Field
        monkeypatch.setattr(field, "__post_init__", counted("Field", field.__post_init__))
        for name in ("apply_S", "solve_T"):
            fn = getattr(subsup.iteration, name)
            monkeypatch.setattr(subsup.iteration, name, counted(name, fn))
        shifted = replace_shifted_points(monkeypatch)  # the solve_T calls with a shift
        br = make_bracket(problem, lower, upper, scenario.tol)
        calls = spy_certificate(monkeypatch)
        before = dict(counts)
        _, trace = iterate_monotone(problem, br, tol=scenario.tol)
        candidates = len(calls)
        plain = len(trace.lower_steps) + len(trace.upper_steps) - sum(trace.restarts)
        assert min(trace.restarts) > 0
        assert candidates == sum(trace.restarts) + sum(trace.refusals)
        assert counts["solve_T"] == plain + len(shifted)
        assert counts["edge_product"] == 2 + candidates
        assert counts["apply_S"] == 2 + 2 + plain + candidates
        fields, run_S = (counts[k] - before[k] for k in ("Field", "apply_S"))
        assert fields == run_S + len(shifted) + 2

    def test_a_side_never_stops_on_a_point_that_does_not_move(
        self, monkeypatch, torus_problem, torus8
    ):
        # a shifted solve whose start already meets its loose tolerance
        # returns the start after zero CG iterations.  Every point is such
        # a copy here: none is certified, kept or refused, and each side
        # takes its plain steps, those of the restart-free run.
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        replace_shifted_points(monkeypatch, lambda solve: solve.x.copy())
        calls = spy_certificate(monkeypatch)
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        rows, (lower, upper) = plain_iteration(torus_problem, br, 1e-9, 1e-11)
        assert trace.converged and not calls
        assert trace.restarts == trace.refusals == (0, 0)
        assert trace.rows() == rows
        assert np.array_equal(pair.u_star.values, lower)
        assert np.array_equal(pair.u_upper_star.values, upper)

    def test_a_point_within_tol_is_not_tried(self, monkeypatch, torus_problem, torus8):
        # the lower side's first point moves it by tol / 2: it gets no
        # image and no certificate, is no refusal, and the side takes its
        # plain step at step 2.  tol = 1e-8 lies above the ordering slack,
        # 1e-9 here, so the test tells the two apart.
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        records = replace_shifted_points(
            monkeypatch, lambda solve: solve.x + 0.5e-8 if solve.number == 1 else None
        )
        real_image = subsup.iteration._image
        images = []

        def image(problem, v):
            images.append(v.copy())
            return real_image(problem, v)

        monkeypatch.setattr(subsup.iteration, "_image", image)
        calls = spy_certificate(monkeypatch)
        _, trace = iterate_monotone(torus_problem, br, tol=1e-8)
        rows, _ = plain_iteration(torus_problem, br, 1e-8, 1e-10)
        assert trace.converged and trace.refusals == (0, 0)
        point = records[0].v
        assert images and calls
        assert not any(np.array_equal(v, point) for v in images)
        assert not any(np.array_equal(v, point) for _, v, _, _ in calls)
        # step 1 and the lower side's step 2 are the restart-free run's
        assert trace.rows()[:3] == rows[:3]

    @pytest.mark.parametrize("rate,restarts", [(0.0, True), (0.5, True), (0.99, False)])
    def test_the_allowance_is_amplified_by_the_contraction_bound(
        self, rate, restarts, monkeypatch, torus_problem, torus8, c_star
    ):
        # a lower point just above the fixed point keeps a positive defect
        # of about 0.15 of the rule's allowance, so the rule passes it; the
        # bound carries that defect over amplified by 1 / (1 - rate)
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        point = np.full(torus8.vertex_count, c_star * (1.0 + 3e-10))
        d = subsup.defect(torus_problem, torus8.field(point)).values
        allowance = 1e-9 * np.abs(torus8.mass * 2.0 * point).max()
        assert 0.1 * allowance < d.max() < 0.2 * allowance
        assert bracket_failures(torus_problem, point, None, 1e-9) == (None, None)
        replace_shifted_points(
            monkeypatch, lambda solve: point.copy() if solve.number == 1 else None
        )
        rates = spy_contraction_rate(monkeypatch, rate)
        accepted = spy_restarts(monkeypatch)
        iterate_monotone(torus_problem, br, tol=1e-9)
        assert np.array_equal(rates[0][0], point)
        assert any(np.array_equal(p, point) for _, p in accepted) == restarts

    @pytest.mark.parametrize("kind", ["zero", "negative", "A v <= 0"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_points_not_positive_are_refused(
        self, side, kind, monkeypatch, torus_problem, torus8, c_star
    ):
        # the bracket rule's "negative" and "zero" checks do not run on
        # restart points: the contraction rate is finite only where v > 0
        # and A v > 0, and the certificate refuses every other point.  A
        # dip to 1e-9 at one vertex keeps v > 0 but makes A v < 0 there.
        sign = 1 - 2 * side
        iterate = np.full(torus8.vertex_count, c_star * (1.0 - sign * 2e-3))
        point = np.full(torus8.vertex_count, c_star * (1.0 - sign * 1e-3))

        def image(v):
            return subsup.iteration._image(torus_problem, v)

        certified = subsup.iteration._certified
        assert certified(torus_problem, sign, point, iterate, image(point), 1e-9)
        point[0] = {"zero": 0.0, "negative": -1e-3, "A v <= 0": 1e-9}[kind]
        av, _ = image(point)
        if kind == "A v <= 0":
            assert point.min() > 0.0 and av.min() <= 0.0
        rate = subsup.iteration._contraction_rate(torus_problem, point, iterate, av)
        assert rate == np.inf
        assert not certified(torus_problem, sign, point, iterate, image(point), 1e-9)
        # and in a run, as the side's first restart point
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        replace_shifted_points(
            monkeypatch,
            lambda solve: point.copy() if solve.number == side + 1 else None,
        )
        calls = spy_certificate(monkeypatch)
        accepted = spy_restarts(monkeypatch)
        _, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        assert trace.converged
        verdicts = [result for _, v, _, result in calls if np.array_equal(v, point)]
        assert verdicts == [False]
        assert not any(np.array_equal(p, point) for _, p in accepted)

    @pytest.mark.parametrize(
        "case,max_steps,counts",
        [
            ("shipped_torus", 500, (6, (5, 5), (0, 0), (6, 0), True)),
            ("shipped_sphere", 500, (6, (5, 5), (0, 0), (19, 1), True)),
            ("torus16_variable", 500, (6, (5, 5), (0, 0), (17, 5), True)),
            ("near_fold_torus", 500, (14, (7, 5), (1, 4), (15, 12), True)),
            ("near_fold_torus", 5, (5, (3, 0), (1, 0), (6, 4), False)),
            ("near_fold_torus", 8, (8, (4, 0), (1, 3), (9, 10), False)),
            ("near_fold_torus", 10, (10, (4, 1), (1, 4), (11, 12), False)),
            ("shipped_torus", 6, (6, (5, 5), (0, 0), (6, 0), True)),
            ("shipped_sphere", 6, (6, (5, 5), (0, 0), (19, 1), True)),
        ],
    )
    def test_counts_are_the_parents(self, case, max_steps, counts, torus8):
        # (steps, restarts, refusals, cg_iterations, converged) of the
        # iteration that stops on a verified enclosure: each converging run
        # ends one step before the per-side rule alone would.  max_steps
        # only ends the run: a truncated run's last step tries its
        # restart points as any other step does, so a run cut at the step
        # count it takes anyway is that run, and the near-fold runs cut
        # earlier count the points their last step tried.  The
        # variable-coefficient and truncated runs are pinned nowhere else.
        if case == "torus16_variable":
            domain = subsup.build_flat_torus([(16, 1.0)] * 3)
            problem = subsup.NonlinearProblem(
                domain,
                subsup.parse_coefficient("2+0.3*sin(6.283185307179586*x)", domain),
                subsup.parse_coefficient("0.5+0.2*cos(6.283185307179586*y)", domain),
                0.5,
                ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
            )
            br, tol = make_bracket(problem, domain.field(0.01), domain.field(1.0)), 1e-9
        elif case == "near_fold_torus":
            problem, br, tol = benchmark_problem(torus8, "1.0001")
        else:
            problem, br, tol = shipped(SCENARIOS[case == "shipped_sphere"])
        _, trace = iterate_monotone(problem, br, tol=tol, max_steps=max_steps)
        assert (
            trace.steps, trace.restarts, trace.refusals, trace.cg_iterations,
            trace.converged,
        ) == counts

    @pytest.mark.parametrize("max_steps", range(5, 11))
    def test_returns_the_last_recorded_iterate(self, max_steps, torus8):
        # a = 1.0001: the upper end 1 is barely an upper solution and T(S(.))
        # expands there (slope 2.75 > a), so the upper side's points fail
        # the contraction certificate until it has crept away, while the
        # lower side restarts; the upper one has not converged by step 10
        problem = subsup.NonlinearProblem(
            torus8, 1.0001, 0.5, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        br = make_bracket(problem, torus8.field(0.01), torus8.field(1.0))
        pair, trace = iterate_monotone(problem, br, tol=1e-9, max_steps=max_steps)
        assert not trace.converged and trace.restarts[0] > 0
        for u, steps in (
            (pair.u_star, trace.lower_steps),
            (pair.u_upper_star, trace.upper_steps),
        ):
            last = steps[-1]
            assert (u.values.min(), u.values.max()) == (last.min_u, last.max_u)

    @pytest.mark.parametrize("case", ["shipped_torus", "shipped_sphere", "near_fold_torus"])
    def test_max_steps_only_ends_the_run(self, case, torus8):
        # step k does the same work whatever the budget: a run cut at N
        # steps records the full run's rows of its first N steps, and one
        # cut at the full run's step count is that run, bit for bit
        if case == "near_fold_torus":
            problem, br, tol = benchmark_problem(torus8, "1.0001")
        else:
            problem, br, tol = shipped(SCENARIOS[case == "shipped_sphere"])
        full_pair, full = iterate_monotone(problem, br, tol=tol)
        assert full.converged
        rows = full.rows()
        for max_steps in range(1, full.steps + 1):
            pair, trace = iterate_monotone(problem, br, tol=tol, max_steps=max_steps)
            assert trace.rows() == [row for row in rows if row[0] <= max_steps]
        assert trace.converged and trace.enclosure_width == full.enclosure_width
        for limit, full_limit in (
            (pair.u_star, full_pair.u_star),
            (pair.u_upper_star, full_pair.u_upper_star),
        ):
            assert limit.values.tobytes() == full_limit.values.tobytes()


def verification_tol(problem, tol):
    """The tol at which the iteration verifies its points (see iterate_monotone)."""
    ma = problem.domain.mass * problem.a.values
    return min(tol, subsup.iteration.ORDERING_SLACK * ma.min() / ma.max())


def spy_verifications(monkeypatch):
    """Record (side, point, passed) of every restart certificate and bracket rule.

    A point passes the certificate where _certified holds and the rule
    where _end_failure finds no failure.
    """
    real_certified = subsup.iteration._certified
    real_failure = subsup.iteration._end_failure
    calls = []

    def certified(problem, sign, v, u, image, tol):
        passed = real_certified(problem, sign, v, u, image, tol)
        calls.append((0 if sign == 1 else 1, v.copy(), passed))
        return passed

    def end_failure(problem, side, v, upper, tol, psi=None):
        failure = real_failure(problem, side, v, upper, tol, psi)
        calls.append((["lower", "upper"].index(side), v.copy(), failure is None))
        return failure

    monkeypatch.setattr(subsup.iteration, "_certified", certified)
    monkeypatch.setattr(subsup.iteration, "_end_failure", end_failure)
    return calls


class TestEnclosureStop:
    @pytest.mark.parametrize(
        "case", ["shipped_torus", "shipped_sphere", "near_fold_torus", "loose_tol",
                 "fixed_point"],
    )
    def test_every_stop_is_verified(self, case, monkeypatch, torus8, c_star):
        # the run stops on a pair at most tol wide whose two points each
        # passed the restart certificate or the bracket rule: kept points
        # on the shipped scenarios, plain ones at step 1 of a fixed-point
        # bracket, and one of each at tol 1e-4
        if case.startswith("shipped"):
            problem, br, tol = shipped(SCENARIOS[case == "shipped_sphere"])
        elif case == "near_fold_torus":
            problem, br, tol = benchmark_problem(torus8, "1.0001")
        else:
            problem = make_constant_problem(torus8)
            ends = (c_star, c_star) if case == "fixed_point" else (0.01, 1.0)
            br = make_bracket(problem, *(torus8.field(v) for v in ends))
            tol = 1e-4 if case == "loose_tol" else 1e-9
        calls = spy_verifications(monkeypatch)
        pair, trace = iterate_monotone(problem, br, tol=tol)
        lower, upper = pair.u_star.values, pair.u_upper_star.values
        assert trace.converged and pair.coincide
        assert trace.enclosure_width == (upper - lower).max() <= tol
        for side, point in enumerate((lower, upper)):
            assert any(
                s == side and passed and np.array_equal(v, point)
                for s, v, passed in calls
            )
        monkeypatch.undo()
        # and, independently, the rule at the iteration's tol passes both
        rule_tol = verification_tol(problem, tol)
        assert bracket_failures(problem, lower, None, rule_tol) == (None, None)
        assert bracket_failures(problem, None, upper, rule_tol) == (None, None)

    def test_a_plain_point_that_fails_the_rule_blocks_the_stop(
        self, monkeypatch, torus_problem, torus8
    ):
        # at tol 1e-4 the run stops at step 5 on the lower side's kept
        # point and the upper side's plain one, 4.3e-5 apart.  That plain
        # point lowered by 1e-6 at one vertex moves its side by at most
        # tol and stays above the lower side, so the per-side rule freezes
        # it, but it fails the bracket rule: no later step stops on it,
        # and the run ends on the lower side's own rule.  The rule runs
        # once on the frozen point: at step 5 on it, at step 6 on the
        # lower side's plain point only
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        real = subsup.iteration.solve_T
        plain, lowered = [], {"at": None}

        def solve_T(linear, b, **kwargs):
            v, report = real(linear, b, **kwargs)
            if kwargs.get("shift") is None:
                plain.append(v)
                if len(plain) == lowered["at"]:
                    v = v.copy()
                    v[0] -= 1e-6
                    jv = linear.domain.L.product(v, linear.diagonal)
                    report = dataclasses.replace(report, Ax=jv)
                    lowered["point"] = v
            return v, report

        monkeypatch.setattr(subsup.iteration, "solve_T", solve_T)
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-4)
        assert trace.steps == 5 and trace.restarts == (4, 3)
        assert trace.enclosure_width is not None
        assert plain[-1] is pair.u_upper_star.values  # the last plain solve's
        lowered["at"], plain[:] = len(plain), []
        rule = subsup.iteration._end_failure
        checked = []

        def end_failure(problem, side, *args):
            checked.append(side)
            return rule(problem, side, *args)

        monkeypatch.setattr(subsup.iteration, "_end_failure", end_failure)
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-4)
        assert checked == ["upper", "lower"]
        point = lowered["point"]
        rule_tol = verification_tol(torus_problem, 1e-4)
        assert bracket_failures(torus_problem, None, point, rule_tol)[1] is not None
        assert np.array_equal(pair.u_upper_star.values, point)
        assert trace.converged and trace.steps > 5
        assert trace.enclosure_width is None and not pair.coincide

    @pytest.mark.parametrize("tol", [1e-5, 1e-8, 1e-9])
    def test_the_rule_judges_only_the_plain_point_it_stops_on(self, tol, monkeypatch, torus8):
        # on the near-fold torus 8^3 the run stops on a lower plain point
        # that passes the rule at tol 1e-5 and 1e-8, and on two kept
        # points at 1e-9, which the rule never sees
        problem, br, _ = benchmark_problem(torus8, "1.0001")
        rule = subsup.iteration._end_failure
        judged = []

        def end_failure(problem, side, v, *args):
            judged.append((side, v.copy()))
            return rule(problem, side, v, *args)

        monkeypatch.setattr(subsup.iteration, "_end_failure", end_failure)
        pair, trace = iterate_monotone(problem, br, tol=tol)
        assert trace.converged and pair.coincide
        assert len(judged) == (tol != 1e-9)
        if judged:
            assert np.array_equal(judged[-1][1], pair.u_star.values)

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(
        gaps=st.lists(st.floats(0.05, 0.3), min_size=5, max_size=5),
        pulls=st.lists(st.floats(0.2, 0.9), min_size=2, max_size=2),
        middle=st.floats(0.0, 1.0),
    )
    def test_a_bracket_of_several_solutions_never_stops_on_it(self, gaps, pulls, middle):
        # a = f = h = 1 and F = 0 on a torus: on constant fields the map
        # is u -> H(u), and the extreme solutions are the extreme roots of
        # H(t) = t in the bracket.  H is drawn through the roots r1 < r2
        # with a knot m between them, where H(m) != m, so these two are
        # the only roots in [lo, hi]; lo is a strict lower solution and hi
        # a strict upper one, H's slope toward each root at most 0.8.  The
        # pair never narrows below r2 - r1 > tol: each side stops on its
        # own rule, and no enclosure is claimed.
        lo, r1, m, r2, hi = np.cumsum(gaps)
        h_m = r1 + middle * (r2 - r1)
        assume(abs(h_m - m) > 1e-3)
        knots = [0.0, lo, r1, m, r2, hi]
        values = [
            0.0, lo + pulls[0] * (r1 - lo), r1, h_m, r2, hi - pulls[1] * (hi - r2),
        ]
        domain = subsup.build_flat_torus([(4, 1.0)] * 3)
        problem = subsup.NonlinearProblem(
            domain, 1.0, 1.0, 1.0,
            ScalarNonlinearity.table([0.0, 1.0], [0.0, 0.0]),
            ScalarNonlinearity.table(knots, values),
            n=3, q=0.5,
        )
        br = make_bracket(problem, domain.field(lo), domain.field(hi))
        pair, trace = iterate_monotone(problem, br, tol=1e-9)
        assert trace.converged
        assert trace.enclosure_width is None and not pair.coincide
        assert np.abs(pair.u_star.values - r1).max() <= 1e-8
        assert np.abs(pair.u_upper_star.values - r2).max() <= 1e-8


class TestIterationMemory:
    # the tracemalloc peak of iterate_monotone above what was traced at
    # its entry, in float64 vectors of the vertex count, with the
    # preconditioner built first.  Peaks: 16.0 on the benchmark's seed-0
    # torus 32^3, 18.6 on its seed-0 icosphere 5 and 17.6 on the shipped
    # torus 8^3, bounded with 7-12% to spare.  They were 17.1, 19.6 and
    # 19.6 while a restart step kept the lower side's J v, m D, and the
    # temporaries of the certificate and S(v) past their last use, and
    # 18.0 on torus 32^3 while solve_T's re-check also kept the old
    # residual and search direction through its product.  Under an outer
    # trace (PYTHONTRACEMALLOC) the test measures from the traced size at
    # its start and leaves the trace running.
    @pytest.mark.parametrize(
        "make, peak_bound",
        [
            (lambda: benchmark_problem(
                subsup.build_flat_torus([(32, 1.0)] * 3), "1.9593627596061982"
            ), 17.5),
            (lambda: benchmark_problem(
                subsup.build_icosphere(5, 1.0), "2.036997641311417+0.5*z"
            ), 20.0),
            (lambda: shipped(SCENARIOS[0]), 19.0),
        ],
        ids=["torus32", "icosphere5", "shipped_torus"],
    )
    def test_peak_in_vertex_vectors(self, make, peak_bound):
        problem, br, tol = make()
        problem.linear.preconditioner
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _, trace = iterate_monotone(problem, br, tol=tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if started:
                tracemalloc.stop()
        assert trace.converged
        assert (peak - before) / (8 * problem.domain.vertex_count) <= peak_bound


class TestPositivity:
    def test_solution_is_positive(self, torus_problem, torus8):
        # on a connected domain the limit is positive everywhere
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        pair, _ = iterate_monotone(torus_problem, br, tol=1e-9)
        assert torus8.is_connected()
        assert pair.u_star.values.min() >= 0.01 - 1e-9


class TestArtifacts:
    def test_solution_files_keep_the_float_list_bytes(self, tmp_path):
        # longer than one formatting chunk; both files share its strings
        from subsup.iteration import IterationTrace, SolutionPair, StepRecord
        from tests.test_serialize import chunk_floats, dumps, reference_csv

        domain = subsup.build_flat_torus([(17, 1.0)] * 3)
        n = domain.vertex_count
        lower, upper = chunk_floats(n), chunk_floats(n + 1)[1:]
        pair = SolutionPair(
            subsup.Field(domain, lower), subsup.Field(domain, upper), 1e-12, 2.5e-13, False
        )
        record = [StepRecord(1, 0.5, 0.25, 1.0, 1e-12)]
        trace = IterationTrace(record, record, 1, True, (0, 0), (0, 0), (1, 1), None)
        write_solution(str(tmp_path), pair, trace, {})
        doc = {
            "u_star": lower,
            "u_upper_star": upper,
            "residual_lower": 1e-12,
            "residual_upper": 2.5e-13,
            "coincide": False,
        }
        assert (tmp_path / "solution.json").read_text() == dumps(doc)
        rows = list(zip(range(n), lower, upper))
        header = ["vertex", "u_star", "u_upper_star"]
        assert (tmp_path / "solution.csv").read_bytes() == reference_csv(header, rows)

    def test_solution_round_trip(self, torus_problem, torus8, tmp_path):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-9)

        write_solution(str(tmp_path), pair, trace, {})
        jpath = tmp_path / "solution.json"
        import json

        doc = json.loads(jpath.read_text())
        assert np.abs(np.array(doc["u_star"]) - pair.u_star.values).max() == 0.0
        assert doc["coincide"] is True

        cpath = tmp_path / "solution.csv"
        rows = cpath.read_text().strip().split("\n")
        assert rows[0] == "vertex,u_star,u_upper_star"
        assert len(rows) == torus8.vertex_count + 1
        assert float(rows[1].split(",")[1]) == pair.u_star.values[0]

        tpath = tmp_path / "trace.csv"
        rows = tpath.read_text().strip().split("\n")
        assert rows[0] == "step,seq,max_change,min_u,max_u,defect_norm"
        assert len(rows) == 1 + len(trace.lower_steps) + len(trace.upper_steps)
