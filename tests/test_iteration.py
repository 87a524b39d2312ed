import numpy as np
import pytest

import subsup
from subsup import BracketError, ScalarNonlinearity, iterate_monotone, make_bracket
from subsup.iteration import BracketFailure, bracket_failures
from subsup.scenario import build_problem, load_scenario

from tests.conftest import make_constant_problem

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


class TestVerify:
    def test_constant_bracket(self, torus_problem, torus8):
        assert subsup.verify_lower(torus_problem, torus8.field(0.01), 1e-9)
        assert subsup.verify_upper(torus_problem, torus8.field(1.0), 1e-9)

    def test_wrong_sides_fail(self, torus_problem, torus8):
        # 0.5 sits above the fixed point: a*c > f F(c) + h H(c) fails there
        assert not subsup.verify_lower(torus_problem, torus8.field(0.5), 1e-9)
        assert not subsup.verify_upper(torus_problem, torus8.field(0.01), 1e-9)

    def test_solution_passes_both(self, torus_problem, torus8, c_star):
        u = torus8.field(c_star)
        assert subsup.verify_lower(torus_problem, u, 1e-9)
        assert subsup.verify_upper(torus_problem, u, 1e-9)

    def test_negative_candidate_rejected(self, torus_problem, torus8):
        with pytest.raises(ValueError):
            subsup.verify_lower(torus_problem, torus8.field(-0.01), 1e-9)

    def test_zero_verifies_but_cannot_seed_a_bracket(self, torus_problem, torus8):
        # power laws vanish at 0, so the defect is exactly zero there
        assert subsup.verify_lower(torus_problem, torus8.field(0.0), 1e-9)
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
        with pytest.raises(BracketError, match="lower > upper at vertex 7"):
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
        with pytest.raises(BracketError, match="lower defect positive at vertex 0"):
            make_bracket(torus_problem, lower, upper)

    def test_tolerance_scales_with_the_end(self, torus_problem, torus8):
        # the lower defect at 0.5 is m (2*0.5 - 0.5*0.5^5 - 0.5*sqrt(0.5)) > 0
        d = float(subsup.defect(torus_problem, torus8.field(0.5)).values.max())
        scale = float(torus8.mass.max()) * 2.0 * 0.5
        just_below = 0.99 * d / scale
        assert not subsup.verify_lower(torus_problem, torus8.field(0.5), just_below)
        assert subsup.verify_lower(torus_problem, torus8.field(0.5), 1.01 * d / scale)

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
        # (unstable) and 1/3 (stable).  The lower side climbs at rate 0.9
        # first, so its step-3 point 0.193 lands above 0.1722, where it is
        # still a lower solution and H has slope 0.5 < 1; the slope 6.9
        # between the iterate and the point is what rules it out.
        # "upper" is the mirror image t -> 1 - t, with fixed points 2/3,
        # 0.8278 and 0.8444.
        ts = np.array([0.0, 0.01, 0.15, 0.17, 0.19, 0.2, 1.0])
        hs = np.array([0.0, 0.029, 0.155, 0.157, 0.295, 0.3, 0.5])
        minimal, maximal = 0.14 / 0.9, 1.0 / 3.0
        bracket = (0.01, 1.0)
        if side == "upper":
            ts, hs = 1.0 - ts[::-1], 1.0 - hs[::-1]
            minimal, maximal = 1.0 - maximal, 1.0 - minimal
            bracket = (0.5, 0.99)
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
        # the bracket rule alone passes a point past the extreme solution
        monkeypatch.setattr(subsup.iteration, "_contraction_rate", lambda *args: 0.0)
        pair, _ = iterate_monotone(prob, br, tol=1e-9)
        assert pair.coincide

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
        path = tmp_path / "trace.csv"
        trace.write_csv(str(path))
        rows = path.read_text().strip().split("\n")[1:]
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
            write_off(tmp_path / "o.off", verts, [(0, 1, 2), (1, 0, 3)]),
            dimension=3,
        )
        prob = make_constant_problem(d)
        br = subsup.Bracket(d.field(0.01), d.field(1.0))
        with pytest.raises(ValueError, match="[Mm].matrix"):
            iterate_monotone(prob, br)


def bend_first_solve(monkeypatch, start, value):
    """Make the first T solve warm-started at the constant `start` return `value`.

    The iteration warm-starts every solve at the previous iterate, so
    `start` picks the first step of one side.
    """
    real = subsup.iteration.solve_T
    bent = []

    def solve_T(problem, psi, **kwargs):
        u, report = real(problem, psi, **kwargs)
        if not bent and np.all(kwargs["x0"].values == start):
            bent.append(True)
            return problem.domain.field(value), report
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
        bend_first_solve(monkeypatch, 1.0, 0.005)
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        with pytest.raises(subsup.OrderingError, match="lower above upper at step 1"):
            iterate_monotone(torus_problem, br, tol=1e-9, max_steps=1)

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


def plain_iteration(problem, bracket, tol, linear_tol):
    """Trace rows and limits of u_{k+1} = T(S(u_k)) without restarts.

    Each side runs on its own until its max change is <= tol; the rows
    are then interleaved as IterationTrace.rows() orders them.
    """
    domain = problem.domain
    A = problem.linear.system_matrix
    rows, limits = [], []
    for seq, start in (("lower", bracket.lower), ("upper", bracket.upper)):
        u, k, change = start.values, 0, np.inf
        while change > tol:
            k += 1
            psi = subsup.apply_S(problem, domain.field(u))
            x, _ = subsup.solve_T(
                problem.linear, psi, tol=linear_tol, x0=domain.field(u)
            )
            change = float(np.abs(x.values - u).max())
            u = x.values
            resid = np.abs(A @ u - subsup.apply_S(problem, x).values).max()
            rows.append((k, seq, change, float(u.min()), float(u.max()), float(resid)))
        limits.append(u)
    rows.sort(key=lambda row: (row[0], row[1] != "lower"))
    return rows, limits


def shipped(path):
    scenario = load_scenario(path)
    _, problem, lower, upper = build_problem(scenario)
    return problem, make_bracket(problem, lower, upper, scenario.tol), scenario.tol


def sphere3_problem(icosphere3):
    a = subsup.parse_coefficient("2+0.5*z", icosphere3)
    return subsup.NonlinearProblem(
        icosphere3, a, 0.5, 0.5,
        ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
    )


def spy_bracket_rule(monkeypatch, verdict=None):
    """Record (args, result) of every bracket_failures call in the iteration.

    With a verdict, its result replaces the rule's.
    """
    real = subsup.iteration.bracket_failures
    calls = []

    def rule(problem, lower, upper, tol, images=(None, None)):
        if verdict is None:
            result = real(problem, lower, upper, tol, images=images)
        else:
            result = verdict(lower, upper)
        calls.append(((lower, upper, tol), result))
        return result

    monkeypatch.setattr(subsup.iteration, "bracket_failures", rule)
    return calls


def reject_all(lower, upper):
    return tuple(
        None if end is None else BracketFailure("defect", "rejected")
        for end in (lower, upper)
    )


class TestRestarts:
    @pytest.mark.parametrize("case", ["torus8", "icosphere3"])
    def test_all_rejected_is_the_plain_iteration(self, case, monkeypatch, request):
        domain = request.getfixturevalue(case)
        if case == "torus8":
            problem = make_constant_problem(domain)
        else:
            problem = sphere3_problem(domain)
        br = make_bracket(problem, domain.field(0.01), domain.field(1.0))
        calls = spy_bracket_rule(monkeypatch, reject_all)
        pair, trace = iterate_monotone(problem, br, tol=1e-9)
        rows, (lower, upper) = plain_iteration(problem, br, 1e-9, 1e-11)
        assert calls and trace.restarts == (0, 0)
        assert trace.steps == 29
        assert trace.rows() == rows
        assert np.array_equal(pair.u_star.values, lower)
        assert np.array_equal(pair.u_upper_star.values, upper)

    @pytest.mark.parametrize("path", SCENARIOS)
    def test_overshooting_points_are_rejected(self, path, monkeypatch):
        problem, br, tol = shipped(path)
        monkeypatch.setattr(subsup.iteration, "RESTART_DAMPING", 3.0)
        calls = spy_bracket_rule(monkeypatch)
        pair, trace = iterate_monotone(problem, br, tol=tol)
        _, (lower, upper) = plain_iteration(problem, br, tol, tol / 100.0)
        assert calls and trace.restarts == (0, 0)
        assert np.array_equal(pair.u_star.values, lower)
        assert np.array_equal(pair.u_upper_star.values, upper)

    @pytest.mark.parametrize("path", SCENARIOS)
    def test_shipped_scenarios_restart(self, path, monkeypatch):
        problem, br, tol = shipped(path)
        calls = spy_bracket_rule(monkeypatch)
        pair, trace = iterate_monotone(problem, br, tol=tol)
        assert trace.converged
        assert min(trace.restarts) > 0
        assert max(len(trace.lower_steps), len(trace.upper_steps)) <= 16
        # every restart point passed the bracket rule, at the run's tol or
        # tighter, so it passes at the run's tol
        passed = []
        for (lower, upper, rule_tol), failures in calls:
            assert rule_tol <= tol
            if lower is not None and failures[0] is None:
                passed.append((lower, None))
            if upper is not None and failures[1] is None:
                passed.append((None, upper))
        assert len(passed) == sum(trace.restarts)
        for ends in passed:
            assert bracket_failures(problem, *ends, tol) == (None, None)
        _, (lower, upper) = plain_iteration(problem, br, tol, tol / 100.0)
        assert np.abs(pair.u_star.values - lower).max() <= 10.0 * tol
        assert np.abs(pair.u_upper_star.values - upper).max() <= 10.0 * tol

    def test_a_restart_must_keep_the_pair_ordered(
        self, monkeypatch, torus_problem, torus8
    ):
        # a rule that passed a lower point above the upper iterate would
        # let the chain cross; the restart is refused instead
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        monkeypatch.setattr(
            subsup.iteration, "_aitken", lambda steps, current, previous: current + 1.0
        )
        calls = spy_bracket_rule(
            monkeypatch, lambda lower, upper: (None, reject_all(None, upper)[1])
        )
        _, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        rows, _ = plain_iteration(torus_problem, br, 1e-9, 1e-11)
        assert calls and trace.restarts == (0, 0)
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
        # make_bracket forms L v and S(v) at both ends; then each step one
        # S per side, and each restart candidate one L v and one S, shared
        # by the rule, the contraction rate and the restart
        scenario = load_scenario(path)
        _, problem, lower, upper = build_problem(scenario)
        counts = {"stiffness_action": 0, "apply_S": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        domain_cls = subsup.geometry.DiscreteDomain
        monkeypatch.setattr(
            domain_cls,
            "stiffness_action",
            counted("stiffness_action", domain_cls.stiffness_action),
        )
        monkeypatch.setattr(
            subsup.iteration, "apply_S", counted("apply_S", subsup.iteration.apply_S)
        )
        br = make_bracket(problem, lower, upper, scenario.tol)
        calls = spy_bracket_rule(monkeypatch)
        _, trace = iterate_monotone(problem, br, tol=scenario.tol)
        candidates = sum(end is not None for (*ends, _), _ in calls for end in ends)
        steps = len(trace.lower_steps) + len(trace.upper_steps)
        assert min(trace.restarts) > 0 and candidates > sum(trace.restarts)
        assert counts["stiffness_action"] == 2 + candidates
        assert counts["apply_S"] == 2 + 2 + steps + candidates

    @pytest.mark.parametrize("max_steps", range(5, 11))
    def test_returns_the_last_recorded_iterate(self, max_steps, torus_problem, torus8):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-9, max_steps=max_steps)
        assert not trace.converged and sum(trace.restarts) > 0
        for u, steps in (
            (pair.u_star, trace.lower_steps),
            (pair.u_upper_star, trace.upper_steps),
        ):
            last = steps[-1]
            assert (u.values.min(), u.values.max()) == (last.min_u, last.max_u)


class TestPositivity:
    def test_positive_on_connected(self, torus8):
        assert subsup.positivity_check(torus8, torus8.field(0.1))
        assert not subsup.positivity_check(torus8, torus8.field(0.0))

    def test_single_zero_entry_fails(self, torus8):
        u = np.ones(torus8.vertex_count)
        u[100] = 0.0
        assert not subsup.positivity_check(torus8, torus8.field(u))

    def test_solution_is_positive(self, torus_problem, torus8):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        pair, _ = iterate_monotone(torus_problem, br, tol=1e-9)
        assert subsup.positivity_check(torus8, pair.u_star)
        assert pair.u_star.values.min() >= 0.01 - 1e-9

    def test_disconnected_raises(self, tmp_path):
        from tests.test_geometry import write_off

        verts = [
            (0, 0, 0), (1, 0, 0), (0, 1, 0),
            (10, 0, 0), (11, 0, 0), (10, 1, 0),
        ]
        d = subsup.load_off(write_off(tmp_path / "d.off", verts, [(0, 1, 2), (3, 4, 5)]))
        with pytest.raises(ValueError, match="connected"):
            subsup.positivity_check(d, d.field(1.0))


class TestArtifacts:
    def test_solution_round_trip(self, torus_problem, torus8, tmp_path):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-9)

        jpath = tmp_path / "solution.json"
        pair.write_json(str(jpath))
        import json

        doc = json.loads(jpath.read_text())
        assert np.abs(np.array(doc["u_star"]) - pair.u_star.values).max() == 0.0
        assert doc["coincide"] is True

        cpath = tmp_path / "solution.csv"
        pair.write_csv(str(cpath))
        rows = cpath.read_text().strip().split("\n")
        assert rows[0] == "vertex,u_star,u_upper_star"
        assert len(rows) == torus8.vertex_count + 1
        assert float(rows[1].split(",")[1]) == pair.u_star.values[0]

        tpath = tmp_path / "trace.csv"
        trace.write_csv(str(tpath))
        rows = tpath.read_text().strip().split("\n")
        assert rows[0] == "step,seq,max_change,min_u,max_u,defect_norm"
        assert len(rows) == 1 + len(trace.lower_steps) + len(trace.upper_steps)
