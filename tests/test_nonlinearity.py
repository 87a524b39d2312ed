import warnings

import numpy as np
import pytest

import subsup
from subsup import ScalarNonlinearity, apply_S, check_alpha1, check_alpha2, critical_exponent

from tests.conftest import make_constant_problem


class TestCriticalExponent:
    def test_values(self):
        assert critical_exponent(3) == pytest.approx(6.0)
        assert critical_exponent(4) == pytest.approx(4.0)
        assert critical_exponent(6) == pytest.approx(3.0)

    def test_needs_n_at_least_three(self):
        for n in (2, 1, 0):
            with pytest.raises(ValueError):
                critical_exponent(n)


class TestScalarNonlinearity:
    def test_power_basics(self):
        F = ScalarNonlinearity.power(5.0)
        assert F(np.array([2.0]))[0] == 32.0
        assert F(np.array([0.0]))[0] == 0.0
        assert F(np.array([-1.0]))[0] == 0.0

    def test_fractional_power_safe_at_negative(self):
        H = ScalarNonlinearity.power(0.5)
        out = H(np.array([-4.0, 0.0, 4.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_power_returns_positive_zero_at_and_below_zero(self):
        for p in (0.5, 1.0, 5.0):
            out = ScalarNonlinearity.power(p)(np.array([-0.0, -1e-300, -3.0, 0.0]))
            assert np.array_equal(out, np.zeros(4))
            assert not np.signbit(out).any()
        assert not np.signbit(ScalarNonlinearity.power(5.0)(-0.0))

    def test_steep_table_segment_has_finite_values(self):
        # the slope 1e10 / 1e-300 has no float; np.interp alone returns inf
        # inside the segment
        G = ScalarNonlinearity.table([0.0, 1e-300, 1.0], [0.0, 1e10, 1e10])
        np.testing.assert_allclose(
            G(np.array([2.5e-301, 5e-301, 1e-300, 0.5])),
            [2.5e9, 5e9, 1e10, 1e10],
            rtol=1e-15,
        )
        G = ScalarNonlinearity.table(
            [-1.0, -2.2250738585e-313, 0.0], [0.0, 0.0, 1.0], truncate=False
        )
        assert 0.99 < G(-5e-324) <= 1.0

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValueError):
            ScalarNonlinearity.power(0.0)
        with pytest.raises(ValueError):
            ScalarNonlinearity.power(-2.0)
        with pytest.raises(ValueError, match="1e18"):
            ScalarNonlinearity.power(1e19)  # t^p is inf at every float t > 1

    @pytest.mark.parametrize(
        "F",
        [
            ScalarNonlinearity.power(0.5),
            ScalarNonlinearity.power(1.0),
            ScalarNonlinearity.power(5.0),
            ScalarNonlinearity.table(
                [0.0, 0.01, 0.15, 0.17, 0.2], [0.0, 0.029, 0.155, 0.157, 0.3]
            ),
        ],
        ids=["sqrt", "linear", "quintic", "table"],
    )
    def test_max_slope_bounds_every_secant(self, F):
        rng = np.random.default_rng(7)
        lo = rng.uniform(0.001, 0.3, 200)
        hi = lo + rng.choice([0.0, 1e-6, 0.01, 0.2], 200)
        bound = F.max_slope(lo, hi)
        for _ in range(20):
            s = lo + rng.uniform(0.0, 1.0, 200) * (hi - lo)
            t = lo + rng.uniform(0.0, 1.0, 200) * (hi - lo)
            # pairs closer than 1e-9 have secants dominated by rounding
            far = np.abs(s - t) >= 1e-9
            secant = np.abs(F(s[far]) - F(t[far])) / np.abs(s[far] - t[far])
            assert np.all(secant <= bound[far] * (1.0 + 1e-6))

    def test_max_slope_values(self):
        H = ScalarNonlinearity.power(0.5)
        assert H.max_slope(0.25, 1.0) == 1.0 and H.max_slope(0.0, 1.0) == np.inf
        assert ScalarNonlinearity.power(5.0).max_slope(0.0, 2.0) == 80.0
        T = ScalarNonlinearity.table([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 5.0])
        lo = np.array([0.2, 0.2, 1.0, 2.5, 3.5, 0.5])
        hi = np.array([0.8, 1.5, 1.0, 2.5, 9.0, 2.5])
        # the touched segments, ends included; beyond the table, slope 0
        assert np.array_equal(T.max_slope(lo, hi), [1.0, 3.0, 3.0, 1.0, 0.0, 3.0])

    @pytest.mark.parametrize(
        "F",
        [
            ScalarNonlinearity.power(0.5),
            ScalarNonlinearity.power(1.0),
            ScalarNonlinearity.power(5.0),
            ScalarNonlinearity.table(
                [0.0, 0.01, 0.15, 0.17, 0.2], [0.0, 0.029, 0.155, 0.157, 0.3]
            ),
            ScalarNonlinearity.table([0.05, 0.1, 0.2], [0.0, 0.2, 0.25]),
        ],
        ids=["sqrt", "linear", "quintic", "table", "table_from_0.05"],
    )
    def test_min_slope_bounds_every_secant(self, F):
        rng = np.random.default_rng(7)
        lo = rng.uniform(0.001, 0.3, 200)
        lo[:40] = 0.0
        hi = lo + rng.choice([0.0, 1e-6, 0.01, 0.2], 200)
        bound = F.min_slope(lo, hi)
        assert np.all(bound >= 0.0)
        for _ in range(20):
            s = lo + rng.uniform(0.0, 1.0, 200) * (hi - lo)
            t = lo + rng.uniform(0.0, 1.0, 200) * (hi - lo)
            # pairs closer than 1e-9 have secants dominated by rounding
            far = np.abs(s - t) >= 1e-9
            secant = (F(s[far]) - F(t[far])) / (s[far] - t[far])
            assert np.all(secant >= bound[far] * (1.0 - 1e-6))

    def test_min_slope_values(self):
        H = ScalarNonlinearity.power(0.5)
        assert H.min_slope(0.25, 1.0) == 0.5 and H.min_slope(0.0, 0.25) == 1.0
        assert H.min_slope(0.0, 0.0) == np.inf
        F = ScalarNonlinearity.power(5.0)
        assert F.min_slope(0.0, 2.0) == 0.0 and F.min_slope(1.0, 2.0) == 5.0
        assert ScalarNonlinearity.power(1.0).min_slope(0.0, 3.0) == 1.0
        T = ScalarNonlinearity.table([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 4.0, 5.0])
        lo = np.array([0.2, 0.2, 1.2, 1.0, 2.5, 3.5, 0.5, 0.0])
        hi = np.array([0.8, 1.5, 1.8, 1.0, 3.5, 9.0, 2.5, 3.0])
        # the touched segments, ends included; reaching beyond the table, 0
        assert np.array_equal(T.min_slope(lo, hi), [1.0, 1.0, 3.0, 1.0, 0.0, 0.0, 1.0, 1.0])
        G = ScalarNonlinearity.table([1.0, 2.0], [0.0, 2.0])
        assert np.array_equal(G.min_slope([0.5, 1.0], [1.5, 1.5]), [0.0, 2.0])

    def test_steep_table_segment_has_infinite_slopes(self):
        # the slope 1e10 / 1e-300 has no float: the table forms it once,
        # as inf, without a RuntimeWarning, and every slope query reads it
        G = ScalarNonlinearity.table([0.0, 1e-300, 1.0], [0.0, 1e10, 1e10])
        lo, hi = np.array([0.0, 0.0, 0.5]), np.array([5e-301, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(G.max_slope(lo, hi), [np.inf, np.inf, 0.0])
            assert np.array_equal(G.min_slope(lo, hi), [np.inf, 0.0, 0.0])
        assert np.array_equal(G.slopes, [np.inf, 0.0])

    def test_table_interpolation(self):
        F = ScalarNonlinearity.table([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
        assert F(np.array([0.5]))[0] == pytest.approx(0.5)
        assert F(np.array([1.5]))[0] == pytest.approx(2.5)
        assert F(np.array([5.0]))[0] == pytest.approx(4.0)  # clamped at the end

    def test_table_truncates_negative_by_default(self):
        F = ScalarNonlinearity.table([-1.0, 1.0], [0.5, 0.5])
        assert F(np.array([-0.5]))[0] == 0.0
        G = ScalarNonlinearity.table([-1.0, 1.0], [0.5, 0.5], truncate=False)
        assert G(np.array([-0.5]))[0] == 0.5

    def test_table_validation(self):
        with pytest.raises(ValueError):
            ScalarNonlinearity.table([1.0], [1.0])
        with pytest.raises(ValueError):
            ScalarNonlinearity.table([0.0, 0.0], [1.0, 2.0])  # ts not increasing
        with pytest.raises(ValueError):
            ScalarNonlinearity.table([0.0, 1.0], [1.0, 0.5])  # values decreasing
        with pytest.raises(ValueError):
            ScalarNonlinearity.table([0.0, 1.0], [1.0, np.inf])

    def test_from_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("t,value\n0.0,0.0\n1.0,2.0\n")
        F = ScalarNonlinearity.from_csv(str(path))
        assert F(np.array([0.5]))[0] == pytest.approx(1.0)

    def test_from_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        for header in ("time,val", "t,value,w"):
            path.write_text(f"{header}\n0.0,0.0\n1.0,2.0\n")
            with pytest.raises(ValueError, match="header"):
                ScalarNonlinearity.from_csv(str(path))


class TestCheckAlpha1:
    def test_critical_power_passes(self):
        F = ScalarNonlinearity.power(5.0)
        H = ScalarNonlinearity.power(0.5)
        report = check_alpha1(F, H, 3, 0.5, 2.0)
        assert report.passed
        assert report.clause is None
        assert report.warnings == []

    def test_supercritical_power_fails_beyond_one(self):
        report = check_alpha1(
            ScalarNonlinearity.power(6.0), ScalarNonlinearity.power(0.5), 3, 0.5, 2.0
        )
        assert not report.passed
        assert report.clause == "F(t) <= t^(2*-1)"
        assert report.t > 1.0
        assert report.value > report.bound

    def test_table_fails_negative_clause(self):
        F = ScalarNonlinearity.table(
            [-0.5, 0.0, 1.0], [0.1, 0.1, 0.5], truncate=False
        )
        report = check_alpha1(F, ScalarNonlinearity.power(0.5), 3, 0.5, 2.0)
        assert not report.passed
        assert report.clause == "F(t) = 0 for t < 0"
        assert report.t < 0.0

    def test_table_excess_inside_a_segment_is_found(self):
        # a chord of the convex t^5 lies above it: a segment from a to b,
        # both on t^5 and between two points of an evenly spaced grid,
        # exceeds the bound only strictly inside, where the slopes meet
        samples = np.linspace(-1.0, 2.0, 1000)
        a, b = samples[833] + 5e-4, samples[834] - 5e-4
        F = ScalarNonlinearity.table([0.0, a - 0.1, a, b, b + 1.0], [0.0, 0.0, a**5, b**5, b**5])
        assert np.all(F(samples) <= np.maximum(samples, 0.0) ** 5)
        report = check_alpha1(F, ScalarNonlinearity.power(0.5), 3, 0.5, 2.0)
        assert not report.passed
        assert report.clause == "F(t) <= t^(2*-1)"
        assert a < report.t < b
        assert report.value > report.bound + 1e-6
        # the point is the segment's largest excess
        inside = np.linspace(a, b, 10001)
        excess = F(inside) - inside**5
        assert report.value - report.bound >= excess.max() - 1e-15

    def test_supercritical_power_past_its_float_range(self):
        # 6^th powers overflow past 5.6e51, short of t_max = 5e61: the
        # report stands on the last point where t^6 and t^5 are finite
        report = check_alpha1(
            ScalarNonlinearity.power(6.0), ScalarNonlinearity.power(0.5), 3, 0.5, 5e61
        )
        assert not report.passed
        assert report.clause == "F(t) <= t^(2*-1)"
        assert all(np.isfinite([report.t, report.value, report.bound]))
        assert 1.0 < report.t < 5e61 and report.value > report.bound
        # the largest exponent: t^p is finite only a few ulp past t = 1
        report = check_alpha1(
            ScalarNonlinearity.power(1e18), ScalarNonlinearity.power(0.5), 3, 0.5, 2.0
        )
        assert report.clause == "F(t) <= t^(2*-1)"
        assert 1.0 < report.t < 1.0 + 1e-15 and np.isfinite(report.value)
        assert report.value > 1e200 * report.bound

    def test_sublinear_power_fails_at_its_critical_point(self):
        # t^0.3 - t^0.5 peaks at (0.5/0.3)^(1/(0.3-0.5)), inside (0, 1)
        report = check_alpha1(
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.3), 3, 0.5, 2.0
        )
        assert report.clause == "H(t) <= t^q"
        assert report.t == pytest.approx((0.5 / 0.3) ** (1.0 / (0.3 - 0.5)))

    def test_h_checked_against_q(self):
        report = check_alpha1(
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(2.0), 3, 0.5, 2.0
        )
        assert not report.passed
        assert report.clause == "H(t) <= t^q"

    def test_warns_on_q_at_least_one(self):
        report = check_alpha1(
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(1.5), 3, 1.5, 2.0
        )
        assert report.passed
        assert len(report.warnings) == 1
        assert "q" in report.warnings[0]

    def test_preconditions(self):
        F = ScalarNonlinearity.power(5.0)
        H = ScalarNonlinearity.power(0.5)
        with pytest.raises(ValueError):
            check_alpha1(F, H, 2, 0.5, 2.0)  # n < 3
        with pytest.raises(ValueError):
            check_alpha1(F, H, 3, 0.0, 2.0)  # q <= 0
        with pytest.raises(ValueError):
            check_alpha1(F, H, 3, 5.0, 2.0)  # q >= 2*-1
        with pytest.raises(ValueError):
            check_alpha1(F, H, 3, 0.5, 0.0)  # t_max <= 0
        with pytest.raises(ValueError, match="^q is None"):
            check_alpha1(F, H, 3, None, 2.0)  # a table H's problem keeps q = None


class TestCheckAlpha2:
    def test_valid_problem_passes(self, torus_problem):
        report = check_alpha2(torus_problem)
        assert report.passed
        assert report.clause is None

    def test_zero_f_fails(self, torus8):
        prob = subsup.NonlinearProblem(
            torus8, 2.0, 0.0, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        report = check_alpha2(prob)
        assert not report.passed
        assert report.clause == "f != 0"
        assert report.vertex is None

    def test_negative_a_fails_with_vertex(self, torus8):
        a = np.full(torus8.vertex_count, 2.0)
        a[5] = -0.1
        prob = subsup.NonlinearProblem(
            torus8, a, 0.5, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        report = check_alpha2(prob)
        assert not report.passed
        assert report.clause == "a > 0"
        assert report.vertex == 5

    def test_zero_a_entry_fails(self, torus8):
        a = np.full(torus8.vertex_count, 2.0)
        a[0] = 0.0  # strict positivity required
        prob = subsup.NonlinearProblem(
            torus8, a, 0.5, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        report = check_alpha2(prob)
        assert not report.passed
        assert report.clause == "a > 0"
        assert report.vertex == 0

    def test_negative_h_fails_with_vertex(self, torus8):
        h = np.full(torus8.vertex_count, 0.5)
        h[9] = -0.5
        prob = subsup.NonlinearProblem(
            torus8, 2.0, 0.5, h,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        report = check_alpha2(prob)
        assert not report.passed
        assert report.clause == "h >= 0"
        assert report.vertex == 9


class TestApplyS:
    def test_constant_example(self, torus_problem, torus8):
        # f = h = 1/2, F(1) = H(1) = 1: the dual vector is just the mass
        psi = apply_S(torus_problem, np.full(torus8.vertex_count, 1.0))
        assert np.abs(psi.values - torus8.mass).max() == 0.0

    def test_monotone(self, torus_problem, torus8):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.uniform(-1.0, 2.0, torus8.vertex_count)
            w = v + rng.uniform(0.0, 1.0, torus8.vertex_count)
            sv = apply_S(torus_problem, v).values
            sw = apply_S(torus_problem, w).values
            assert np.all(sv <= sw + 1e-15)

    def test_truncation_exact(self, torus_problem, torus8):
        rng = np.random.default_rng(13)
        v = rng.uniform(-2.0, 2.0, torus8.vertex_count)
        clamped = np.maximum(v, 0.0)
        sv = apply_S(torus_problem, v).values
        sc = apply_S(torus_problem, clamped).values
        assert np.array_equal(sv, sc)

    def test_all_negative_gives_zero(self, torus_problem, torus8):
        psi = apply_S(torus_problem, np.full(torus8.vertex_count, -3.0))
        assert np.all(psi.values == 0.0)

    def test_zero_is_a_fixed_input(self, torus_problem, torus8):
        psi = apply_S(torus_problem, np.full(torus8.vertex_count, 0.0))
        assert np.all(psi.values == 0.0)

    def test_nonnegative_outputs(self, torus_problem, torus8):
        rng = np.random.default_rng(19)
        v = rng.uniform(0.0, 2.0, torus8.vertex_count)
        assert apply_S(torus_problem, v).values.min() >= 0.0

    @pytest.mark.parametrize("length", [1, 511, 513])
    def test_rejects_v_of_another_length(self, torus_problem, length):
        # a length-1 v would broadcast to a full-length S(v)
        with pytest.raises(ValueError, match="shape"):
            apply_S(torus_problem, np.ones(length))

    def test_dual_norm_monotone(self, icosphere2):
        # 0 <= v <= w gives ||S(v)||_* <= ||S(w)||_* in the dual norm
        # r' (L+M)^{-1} r, computed densely as the oracle
        prob = make_constant_problem(icosphere2)
        rng = np.random.default_rng(29)
        Hmat = icosphere2.stiffness.toarray() + np.diag(icosphere2.mass)
        for _ in range(5):
            v = rng.uniform(0.0, 1.0, icosphere2.vertex_count)
            w = v + rng.uniform(0.0, 1.0, icosphere2.vertex_count)
            sv = apply_S(prob, v).values
            sw = apply_S(prob, w).values
            norm_v = sv @ np.linalg.solve(Hmat, sv)
            norm_w = sw @ np.linalg.solve(Hmat, sw)
            assert norm_v <= norm_w + 1e-12


class TestNonlinearProblem:
    def test_q_defaults_to_h_exponent(self, torus8):
        prob = make_constant_problem(torus8)
        assert prob.q == 0.5
        assert prob.n == 3

    def test_n_is_required(self, torus8):
        # n enters only through the critical exponent; no domain implies it
        with pytest.raises(TypeError):
            subsup.NonlinearProblem(
                torus8, 2.0, 0.5, 0.5,
                ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5),
            )

    def test_q_none_for_table_h(self, torus8):
        H = ScalarNonlinearity.table([0.0, 1.0], [0.0, 0.5])
        prob = subsup.NonlinearProblem(
            torus8, 2.0, 0.5, 0.5, ScalarNonlinearity.power(5.0), H, n=3
        )
        assert prob.q is None

    def test_linear_property_gatekeeps(self, torus8):
        prob = subsup.NonlinearProblem(
            torus8, 0.0, 0.5, 0.5,
            ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
        )
        with pytest.raises(ValueError):
            prob.linear
