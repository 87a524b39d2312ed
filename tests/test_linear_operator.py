import numpy as np
import pytest

import subsup
from subsup import ConvergenceError, LinearProblem, embed_function, solve_T
from subsup.linear_operator import DualVector


def random_positive_field(domain, rng, low=0.5, high=3.0):
    return domain.field(rng.uniform(low, high, domain.vertex_count))


def as_off(domain, path):
    """The same surface read back from an OFF file: no refinement chain."""
    from tests.test_geometry import write_off

    return subsup.load_off(write_off(path, domain.coordinates, domain.faces))


def random_dual(domain, rng, scale=1.0):
    return DualVector(domain, rng.standard_normal(domain.vertex_count) * scale)


class TestLinearProblem:
    def test_requires_positive_a(self, icosphere2):
        with pytest.raises(ValueError):
            LinearProblem(icosphere2, icosphere2.field(0.0))
        a = np.ones(icosphere2.vertex_count)
        a[7] = -1.0
        with pytest.raises(ValueError):
            LinearProblem(icosphere2, icosphere2.field(a))

    def test_coercivity_constant(self, icosphere2):
        assert LinearProblem(icosphere2, icosphere2.field(4.0)).coercivity_constant == 1.0
        assert LinearProblem(icosphere2, icosphere2.field(0.25)).coercivity_constant == 0.25
        a = np.full(icosphere2.vertex_count, 2.0)
        a[3] = 0.5
        assert LinearProblem(icosphere2, icosphere2.field(a)).coercivity_constant == 0.5

    def test_system_matrix(self, torus8):
        lp = LinearProblem(torus8, torus8.field(2.0))
        A = lp.system_matrix
        expected = torus8.stiffness + 2.0 * torus8.mass_matrix
        assert abs(A - expected).max() == 0.0


class TestSolveT:
    def test_constant_identity(self, icosphere2):
        # a = 1, psi = M*1: u = 1 exactly
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        u, report = solve_T(lp, embed_function(icosphere2.field(1.0)))
        assert np.abs(u.values - 1.0).max() <= 1e-12
        assert report.final_residual_norm <= 1e-10

    def test_constant_scaling(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(4.0))
        u, _ = solve_T(lp, embed_function(icosphere2.field(2.0)))
        assert np.abs(u.values - 0.5).max() <= 1e-12

    def test_cosine_mode_on_torus(self, torus16_2d):
        x = torus16_2d.coordinates[:, 0]
        lp = LinearProblem(torus16_2d, torus16_2d.field(1.0))
        u, _ = solve_T(lp, embed_function(torus16_2d.field(np.cos(x))))
        assert np.abs(u.values - np.cos(x) / 2.0).max() <= 0.02 * 0.5

    def test_matches_dense_solve(self, icosphere2):
        rng = np.random.default_rng(11)
        lp = LinearProblem(icosphere2, random_positive_field(icosphere2, rng))
        psi = random_dual(icosphere2, rng)
        u, report = solve_T(lp, psi, tol=1e-12)
        expected = np.linalg.solve(lp.system_matrix.toarray(), psi.values)
        assert np.abs(u.values - expected).max() <= 1e-8
        assert report.iterations >= 1

    def test_residual_contract(self, icosphere3):
        rng = np.random.default_rng(5)
        lp = LinearProblem(icosphere3, random_positive_field(icosphere3, rng))
        psi = random_dual(icosphere3, rng)
        for tol in (1e-6, 1e-10):
            u, report = solve_T(lp, psi, tol=tol)
            true_resid = np.linalg.norm(lp.system_matrix @ u.values - psi.values)
            bound = tol * np.linalg.norm(psi.values)
            assert true_resid <= bound
            assert report.final_residual_norm <= bound

    def test_energy_history_non_increasing(self, icosphere3):
        rng = np.random.default_rng(17)
        lp = LinearProblem(icosphere3, random_positive_field(icosphere3, rng))
        psi = random_dual(icosphere3, rng, scale=10.0)
        _, report = solve_T(lp, psi)
        hist = report.energy_history
        assert len(hist) >= 2
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_zero_rhs(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        u, report = solve_T(lp, DualVector(icosphere2, np.zeros(icosphere2.vertex_count)))
        assert np.all(u.values == 0.0)
        assert report.iterations == 0

    def test_warm_start(self, icosphere2):
        rng = np.random.default_rng(3)
        lp = LinearProblem(icosphere2, random_positive_field(icosphere2, rng))
        psi = random_dual(icosphere2, rng)
        cold, _ = solve_T(lp, psi, tol=1e-12)
        warm, report = solve_T(lp, psi, tol=1e-12, x0=cold)
        assert np.abs(warm.values - cold.values).max() <= 1e-9
        assert report.iterations <= 2

    def test_unreachable_tolerance_raises(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = embed_function(icosphere2.field(1.0))
        with pytest.raises(ConvergenceError) as exc:
            solve_T(lp, psi, tol=1e-40)  # below roundoff floor
        assert exc.value.report.iterations > 0
        with pytest.raises(ValueError):
            solve_T(lp, psi, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_tol_that_is_not_finite_and_positive(self, icosphere2, tol):
        # a nan stop rule compares false both ways and would loop forever
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = embed_function(icosphere2.field(1.0))
        with pytest.raises(ValueError, match="tol"):
            solve_T(lp, psi, tol=tol)

    def test_rejects_foreign_domain(self, icosphere2, torus8):
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = embed_function(torus8.field(1.0))
        with pytest.raises(ValueError):
            solve_T(lp, psi)


def smooth_positive_field(domain, low=1.0, high=10.0):
    """a in [low, high], resolved alike at every grid size."""
    x, y, _ = domain.coordinates.T
    lx = domain.grid_lengths[0]
    ly = domain.grid_lengths[1] if len(domain.grid_lengths) > 1 else 1.0
    wave = np.sin(2.0 * np.pi * x / lx) * np.cos(2.0 * np.pi * y / ly)
    return domain.field(0.5 * (low + high) + 0.5 * (high - low) * wave)


TORI = {
    "1d_odd": [(7, 2.0)],
    "1d_even": [(10, 1.0)],
    "2d_mixed": [(6, 1.0), (9, 3.0)],
    "3d_mixed": [(4, 1.0), (5, 2.0), (6, 0.7)],
}


class TestFFTPreconditioner:
    @pytest.mark.parametrize("name", sorted(TORI))
    @pytest.mark.parametrize("variable", [False, True])
    def test_matches_dense_solve(self, name, variable):
        domain = subsup.build_flat_torus(TORI[name])
        rng = np.random.default_rng(23)
        a = random_positive_field(domain, rng, 1.0, 10.0) if variable else 2.5
        lp = LinearProblem(domain, domain.field(a))
        psi = random_dual(domain, rng)
        u, report = solve_T(lp, psi, tol=1e-12)
        expected = np.linalg.solve(lp.system_matrix.toarray(), psi.values)
        assert np.abs(u.values - expected).max() <= 1e-8
        if not variable:
            # P = A, so CG from zero lands on the solution in one step
            assert report.iterations == 1
            assert len(report.energy_history) == 2

    def test_surface_keeps_jacobi(self, icosphere2, tmp_path):
        domain = as_off(icosphere2, tmp_path / "ico2.off")
        rng = np.random.default_rng(31)
        lp = LinearProblem(domain, random_positive_field(domain, rng))
        r = rng.standard_normal(domain.vertex_count)
        assert np.array_equal(lp.preconditioner(r), r / lp.system_matrix.diagonal())

    def test_energy_history_non_increasing(self, torus8):
        rng = np.random.default_rng(37)
        lp = LinearProblem(torus8, smooth_positive_field(torus8))
        _, report = solve_T(lp, random_dual(torus8, rng, scale=10.0))
        hist = report.energy_history
        assert len(hist) >= 3
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_warm_start(self, torus8):
        rng = np.random.default_rng(41)
        lp = LinearProblem(torus8, smooth_positive_field(torus8))
        psi = random_dual(torus8, rng)
        cold, _ = solve_T(lp, psi, tol=1e-12)
        warm, report = solve_T(lp, psi, tol=1e-12, x0=cold)
        assert np.abs(warm.values - cold.values).max() <= 1e-9
        assert report.iterations <= 2

    def test_unreachable_tolerance_raises(self):
        # a random right-hand side: constant ones are solved without roundoff
        domain = subsup.build_flat_torus(TORI["2d_mixed"])
        lp = LinearProblem(domain, domain.field(1.0))
        psi = random_dual(domain, np.random.default_rng(43))
        with pytest.raises(ConvergenceError) as exc:
            solve_T(lp, psi, tol=1e-40)
        assert exc.value.report.iterations > 0

    def test_iterations_independent_of_mesh_size(self):
        counts = []
        for cells in (16, 32):
            domain = subsup.build_flat_torus([(cells, 1.0)] * 3)
            x, _, z = domain.coordinates.T
            lp = LinearProblem(domain, smooth_positive_field(domain))
            psi = embed_function(domain.field(np.cos(2.0 * np.pi * z) + x))
            _, report = solve_T(lp, psi)
            counts.append(report.iterations)
        assert counts[1] <= counts[0] + 2


def sphere_problem(subdivisions):
    domain = subsup.build_icosphere(subdivisions)
    return LinearProblem(domain, domain.field(2.0 + 0.5 * domain.coordinates[:, 2]))


class TestMultigridPreconditioner:
    @pytest.mark.parametrize("subdivisions", [1, 2, 3, 4])
    def test_prolongation_interpolates(self, subdivisions):
        from subsup.linear_operator import _prolongation

        domain = subsup.build_icosphere(subdivisions)
        coarse_count, parents = domain.refinement[-1]
        P = _prolongation(coarse_count, parents)
        assert P.shape == (domain.vertex_count, coarse_count)
        assert np.array_equal(P @ np.ones(coarse_count), np.ones(domain.vertex_count))
        assert np.array_equal(P[:coarse_count].toarray(), np.eye(coarse_count))
        assert np.all(P.getnnz(axis=1)[coarse_count:] == 2)

    @pytest.mark.parametrize("subdivisions", [3, 4])
    def test_symmetric_positive_definite(self, subdivisions):
        precondition = sphere_problem(subdivisions).preconditioner
        rng = np.random.default_rng(47)
        n = 10 * 4**subdivisions + 2
        for _ in range(5):
            x, y = rng.standard_normal((2, n))
            By = precondition(y)
            scale = np.linalg.norm(x) * np.linalg.norm(By)
            assert abs(x @ By - y @ precondition(x)) <= 1e-12 * scale
            assert x @ precondition(x) > 0.0

    @pytest.mark.parametrize("subdivisions", [2, 3])
    def test_matches_dense_solve(self, subdivisions):
        domain = subsup.build_icosphere(subdivisions)
        rng = np.random.default_rng(53)
        lp = LinearProblem(domain, random_positive_field(domain, rng))
        psi = random_dual(domain, rng)
        u, _ = solve_T(lp, psi, tol=1e-12)
        expected = np.linalg.solve(lp.system_matrix.toarray(), psi.values)
        assert np.abs(u.values - expected).max() <= 1e-8

    @pytest.mark.parametrize("subdivisions", [0, 1, 2])
    def test_exact_up_to_icosphere_2(self, subdivisions):
        # no smoothing level: P^{-1} is an exact solve with A
        lp = sphere_problem(subdivisions)
        psi = random_dual(lp.domain, np.random.default_rng(59))
        _, report = solve_T(lp, psi, tol=1e-11)
        assert report.iterations == 1

    def test_agrees_with_jacobi(self, tmp_path):
        multigrid = sphere_problem(5)
        domain = as_off(multigrid.domain, tmp_path / "ico5.off")
        jacobi = LinearProblem(domain, domain.field(multigrid.a.values))
        values = np.random.default_rng(61).standard_normal(domain.vertex_count)
        u_mg, r_mg = solve_T(multigrid, DualVector(multigrid.domain, values), tol=1e-12)
        u_j, r_j = solve_T(jacobi, DualVector(domain, values), tol=1e-12)
        scale = np.abs(u_j.values).max()
        assert np.abs(u_mg.values - u_j.values).max() <= 1e-9 * scale
        assert 10 * r_mg.iterations < r_j.iterations

    def test_iterations_independent_of_subdivisions(self):
        counts = []
        for subdivisions in (3, 5):
            lp = sphere_problem(subdivisions)
            x, _, z = lp.domain.coordinates.T
            psi = embed_function(lp.domain.field(np.cos(3.0 * z) + x))
            _, report = solve_T(lp, psi, tol=1e-11)
            counts.append(report.iterations)
        assert counts[1] <= counts[0] + 2

    def test_energy_history_non_increasing(self):
        lp = sphere_problem(4)
        _, report = solve_T(lp, random_dual(lp.domain, np.random.default_rng(67), 10.0))
        hist = report.energy_history
        assert len(hist) >= 3
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_warm_start(self):
        lp = sphere_problem(3)
        psi = random_dual(lp.domain, np.random.default_rng(71))
        cold, _ = solve_T(lp, psi, tol=1e-12)
        warm, report = solve_T(lp, psi, tol=1e-12, x0=cold)
        assert np.abs(warm.values - cold.values).max() <= 1e-9
        assert report.iterations <= 2

    def test_unreachable_tolerance_raises(self):
        lp = sphere_problem(3)
        psi = random_dual(lp.domain, np.random.default_rng(73))
        with pytest.raises(ConvergenceError) as exc:
            solve_T(lp, psi, tol=1e-40)
        assert exc.value.report.iterations > 0


class TestEmbedFunction:
    def test_zero_field(self, torus8):
        psi = embed_function(torus8.field(0.0))
        assert np.all(psi.values == 0.0)

    def test_unit_field_sums_to_volume(self, torus8):
        psi = embed_function(torus8.field(1.0))
        assert np.array_equal(psi.values, torus8.mass)
        assert psi.values.sum() == pytest.approx(1.0, rel=1e-12)

    def test_indicator_picks_one_mass_entry(self, icosphere2):
        v = np.zeros(icosphere2.vertex_count)
        v[17] = 1.0
        psi = embed_function(icosphere2.field(v))
        assert psi.values[17] == icosphere2.mass[17]
        assert np.count_nonzero(psi.values) == 1


class TestComparison:
    def test_constants_are_ordered(self, torus8):
        lp = LinearProblem(torus8, torus8.field(1.0))
        lo = embed_function(torus8.field(0.0))
        hi = embed_function(torus8.field(1.0))
        assert subsup.check_comparison(lp, lo, hi)

    def test_ordered_rhs_gives_ordered_solutions(self, icosphere2):
        rng = np.random.default_rng(23)
        lp = LinearProblem(icosphere2, random_positive_field(icosphere2, rng))
        for _ in range(10):
            lo = random_dual(icosphere2, rng)
            hi_vals = lo.values + rng.uniform(0.0, 1.0, icosphere2.vertex_count)
            assert subsup.check_comparison(lp, lo, DualVector(icosphere2, hi_vals))

    def test_equal_rhs_passes(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = embed_function(icosphere2.field(1.0))
        assert subsup.check_comparison(lp, psi, psi)

    def test_unordered_rhs_is_input_error(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        lo = embed_function(icosphere2.field(1.0))
        hi = embed_function(icosphere2.field(0.5))
        with pytest.raises(ValueError):
            subsup.check_comparison(lp, lo, hi)

    def test_refuses_non_m_matrix(self, tmp_path):
        from tests.test_geometry import write_off

        verts = [(0, 0, 0), (4, 0, 0), (2, 0.2, 0), (2, -0.2, 0)]
        d = subsup.load_off(write_off(tmp_path / "o.off", verts, [(0, 1, 2), (1, 0, 3)]))
        lp = LinearProblem(d, d.field(1.0))
        psi = embed_function(d.field(1.0))
        with pytest.raises(ValueError, match="[Mm].matrix"):
            subsup.check_comparison(lp, psi, psi)


class TestLipschitz:
    def test_certificate_holds(self, icosphere2):
        rng = np.random.default_rng(31)
        for _ in range(5):
            lp = LinearProblem(icosphere2, random_positive_field(icosphere2, rng, 0.3, 4.0))
            lhs, rhs = subsup.lipschitz_certificate(
                lp, random_dual(icosphere2, rng), random_dual(icosphere2, rng)
            )
            assert lhs <= rhs + 1e-9

    def test_equality_when_a_is_one(self, icosphere2):
        # C = 1 and the operator equals L + M, so the bound is sharp
        rng = np.random.default_rng(37)
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        lhs, rhs = subsup.lipschitz_certificate(
            lp, random_dual(icosphere2, rng), random_dual(icosphere2, rng)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_identical_rhs_gives_zero_pair(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(2.0))
        psi = embed_function(icosphere2.field(1.0))
        lhs, rhs = subsup.lipschitz_certificate(lp, psi, psi)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_strict_gap_when_a_large(self, torus8):
        # a = 4 shrinks solutions more than the H1 pair (L + M), so the
        # certified bound is loose by a definite margin
        lp = LinearProblem(torus8, torus8.field(4.0))
        zero = embed_function(torus8.field(0.0))
        one = embed_function(torus8.field(1.0))
        lhs, rhs = subsup.lipschitz_certificate(lp, zero, one)
        assert lhs < rhs - 1e-6

    def test_size_cap(self):
        d = subsup.build_flat_torus([(13, 1.0)] * 3)  # 2197 > 2000
        lp = LinearProblem(d, d.field(1.0))
        psi = embed_function(d.field(1.0))
        with pytest.raises(ValueError, match="2000"):
            subsup.lipschitz_certificate(lp, psi, psi)


class TestH1Norm:
    def test_matches_quadratic_form(self, icosphere2):
        rng = np.random.default_rng(41)
        v = rng.standard_normal(icosphere2.vertex_count)
        H = icosphere2.stiffness.toarray() + np.diag(icosphere2.mass)
        assert subsup.h1_norm(icosphere2, v) == pytest.approx(np.sqrt(v @ H @ v), rel=1e-12)

    def test_constant_norm_is_volume(self, torus8):
        # stiffness kills constants, mass contributes the volume
        assert subsup.h1_norm(torus8, np.ones(512)) == pytest.approx(1.0, rel=1e-12)


class TestCoercivity:
    def test_energy_lower_bound(self, icosphere2):
        rng = np.random.default_rng(43)
        a = random_positive_field(icosphere2, rng, 0.2, 5.0)
        lp = LinearProblem(icosphere2, a)
        A = lp.system_matrix
        C = lp.coercivity_constant
        for _ in range(20):
            v = rng.standard_normal(icosphere2.vertex_count)
            energy = v @ (A @ v)
            assert 0.5 * energy >= 0.5 * C * subsup.h1_norm(icosphere2, v) ** 2 - 1e-10
