import numpy as np
import pytest

import subsup
from subsup import BracketError, ScalarNonlinearity, iterate_monotone, make_bracket
from subsup.iteration import bracket_failures

from tests.conftest import make_constant_problem


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


class TestIterateMonotone:
    def test_constant_oracle(self, torus_problem, torus8, c_star):
        br = make_bracket(torus_problem, torus8.field(0.01), torus8.field(1.0))
        pair, trace = iterate_monotone(torus_problem, br, tol=1e-9)
        assert trace.converged
        assert trace.ordering_violations == 0
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
        assert trace.ordering_violations == 0
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
        br = subsup.Bracket(torus8.field(0.01), torus8.field(1.0), 1e-9)
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
        br = subsup.Bracket(d.field(0.01), d.field(1.0), 1e-9)
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
