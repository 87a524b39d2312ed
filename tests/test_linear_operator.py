import importlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import subsup
from subsup import ConvergenceError, Field, LinearProblem, solve_T
from subsup.geometry import SlotLayout, _assemble_surface


def random_positive_field(domain, rng, low=0.5, high=3.0):
    return domain.field(rng.uniform(low, high, domain.vertex_count))


def as_off(domain, path):
    """The same surface read back from an OFF file: no refinement chain."""
    from tests.test_geometry import write_off

    return subsup.load_off(write_off(path, domain.coordinates, domain.faces))


def csr_matvec_reference(A, values):
    """A @ values from a scipy CSR matrix, the way solve_T's L.product sums.

    Each row starts from its diagonal term and adds its other entries
    one after another in CSR order; np.add.at is unbuffered, so repeated
    rows accumulate in array order.
    """
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    off = A.indices != rows
    out = A.diagonal() * values
    np.add.at(out, rows[off], A.data[off] * values[A.indices[off]])
    return out


def assert_within_rounding(got, A, values):
    """got is A @ values up to the rounding of two sums of products.

    A row of k terms summed in any order is within k eps (|A| |x|)_i of
    the exact value, so two such sums differ by at most twice that.
    """
    k = np.diff(A.indptr).max()
    bound = 2 * k * np.finfo(float).eps * (abs(A) @ np.abs(values))
    assert np.all(np.abs(got - A @ values) <= bound)


def random_dual(domain, rng, scale=1.0):
    return Field(domain, rng.standard_normal(domain.vertex_count) * scale)


class TestLinearProblem:
    def test_requires_positive_a(self, icosphere2):
        with pytest.raises(ValueError):
            LinearProblem(icosphere2, icosphere2.field(0.0))
        a = np.ones(icosphere2.vertex_count)
        a[7] = -1.0
        with pytest.raises(ValueError):
            LinearProblem(icosphere2, icosphere2.field(a))

    def test_system_matrix(self, torus8):
        import scipy.sparse as sp

        lp = LinearProblem(torus8, torus8.field(2.0))
        A = lp.system_matrix
        expected = torus8.stiffness + 2.0 * sp.diags(torus8.mass)
        assert abs(A - expected).max() == 0.0


class TestProblemSizes:
    """perfbench's size record of A follows from the slot layout alone.

    perfbench/run.py reads n, nnz and the CSR bytes of system_matrix; the
    same figures come from L.weights (pads are 0, a stored entry never
    is) plus the diagonal, with float64 values and int32 indices.
    """

    @pytest.fixture(scope="class")
    def perfbench(self):
        path = str(Path(__file__).resolve().parents[1] / "perfbench")
        sys.path.insert(0, path)  # run.py imports its siblings by bare name
        try:
            return importlib.import_module("run"), importlib.import_module("workloads")
        finally:
            sys.path.remove(path)

    @pytest.mark.parametrize(
        "key, workload",
        [
            ("sphere_variable", "shipped_cli"),
            ("torus_constant", "shipped_cli"),
            ("ico5", "sphere_ico5_solve"),
            ("torus32", "torus32_solve"),
            ("hub", None),
        ],
    )
    def test_nnz_and_csr_bytes_follow_from_the_slots(self, perfbench, key, workload, tmp_path):
        from tests.test_geometry import bipyramid_off

        run, workloads = perfbench
        if workload is None:  # an OFF mesh with two apexes of valence 300
            bipyramid_off(tmp_path / "hub.off", 300)
            doc = json.loads(Path(run.ROOT, "scenarios", "torus_constant.json").read_text())
            doc["domain"] = {"kind": "off", "path": "hub.off"}
            path = tmp_path / "hub.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths = {key: str(path)}
        else:
            paths = workloads.WORKLOADS[workload].scenario_paths(run.ROOT, tmp_path, 0)
        built = run.build_problems(paths)
        sizes = run.problem_sizes(built)[key]
        domain = built[key][1].domain
        n = domain.vertex_count
        assert sizes["n"] == n
        assert sizes["nnz"] == np.count_nonzero(domain.L.weights) + n
        assert sizes["csr_bytes"] == (8 + 4) * sizes["nnz"] + 4 * (n + 1)


class TestSolveT:
    def test_constant_identity(self, icosphere2):
        # a = 1, psi = M*1: u = 1 exactly
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        u, report = solve_T(lp, Field(icosphere2, icosphere2.mass))
        assert np.abs(u - 1.0).max() <= 1e-12
        assert report.final_residual_norm <= 1e-10

    def test_constant_scaling(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(4.0))
        u, _ = solve_T(lp, Field(icosphere2, icosphere2.mass * 2.0))
        assert np.abs(u - 0.5).max() <= 1e-12

    def test_cosine_mode_on_torus(self, torus16_2d):
        x = torus16_2d.coordinates[:, 0]
        lp = LinearProblem(torus16_2d, torus16_2d.field(1.0))
        u, _ = solve_T(lp, Field(torus16_2d, torus16_2d.mass * np.cos(x)))
        assert np.abs(u - np.cos(x) / 2.0).max() <= 0.02 * 0.5

    def test_matches_dense_solve(self, icosphere2):
        rng = np.random.default_rng(11)
        lp = LinearProblem(icosphere2, random_positive_field(icosphere2, rng))
        psi = random_dual(icosphere2, rng)
        u, report = solve_T(lp, psi, tol=1e-12)
        expected = np.linalg.solve(lp.system_matrix.toarray(), psi.values)
        assert np.abs(u - expected).max() <= 1e-8
        assert report.iterations >= 1

    def test_residual_contract(self, icosphere3):
        rng = np.random.default_rng(5)
        lp = LinearProblem(icosphere3, random_positive_field(icosphere3, rng))
        psi = random_dual(icosphere3, rng)
        for tol in (1e-6, 1e-10):
            u, report = solve_T(lp, psi, tol=tol)
            true_resid = np.linalg.norm(lp.system_matrix @ u - psi.values)
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
        u, report = solve_T(lp, Field(icosphere2, np.zeros(icosphere2.vertex_count)))
        assert np.all(u == 0.0)
        assert report.iterations == 0

    def test_warm_start(self, icosphere2):
        rng = np.random.default_rng(3)
        lp = LinearProblem(icosphere2, random_positive_field(icosphere2, rng))
        psi = random_dual(icosphere2, rng)
        cold, _ = solve_T(lp, psi, tol=1e-12)
        warm, report = solve_T(lp, psi, tol=1e-12, x0=cold)
        assert np.abs(warm - cold).max() <= 1e-9
        assert report.iterations <= 2

    def test_unreachable_tolerance_raises(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = Field(icosphere2, icosphere2.mass)
        with pytest.raises(ConvergenceError) as exc:
            solve_T(lp, psi, tol=1e-40)  # below roundoff floor
        assert exc.value.report.iterations > 0
        with pytest.raises(ValueError):
            solve_T(lp, psi, tol=0.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_rejects_tol_that_is_not_finite_and_positive(self, icosphere2, tol):
        # a nan stop rule compares false both ways and would loop forever
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = Field(icosphere2, icosphere2.mass)
        with pytest.raises(ValueError, match="tol"):
            solve_T(lp, psi, tol=tol)

    def test_rejects_foreign_domain(self, icosphere2, torus8):
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = Field(torus8, torus8.mass)
        with pytest.raises(ValueError):
            solve_T(lp, psi)

    @pytest.mark.parametrize("length", [1, 161, 163])
    def test_rejects_x0_of_another_length(self, icosphere2, length):
        # a length-1 start would broadcast against every product
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = Field(icosphere2, icosphere2.mass)
        with pytest.raises(ValueError, match="x0"):
            solve_T(lp, psi, x0=np.ones(length))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_x0_never_returns(self, icosphere2, torus8, bad):
        for domain in (icosphere2, torus8):
            lp = LinearProblem(domain, domain.field(1.0))
            x0 = np.ones(domain.vertex_count)
            x0[5] = bad
            with np.errstate(invalid="ignore"), pytest.raises(ConvergenceError):
                solve_T(lp, Field(domain, domain.mass), x0=x0)

    def test_an_overflowing_norm_of_psi_raises(self, icosphere2):
        # every entry is finite, but ||psi||_2 is not: the stop rule
        # tol * ||psi||_2 would be inf and pass any start
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = Field(icosphere2, np.full(icosphere2.vertex_count, 1e200))
        with pytest.raises(ValueError, match="overflows"):
            solve_T(lp, psi)
        # entries of 1e150 leave the norm finite, and the solve runs
        solve_T(lp, Field(icosphere2, np.full(icosphere2.vertex_count, 1e150)))


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
        assert np.abs(u - expected).max() <= 1e-8
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
        assert np.abs(warm - cold).max() <= 1e-9
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
            psi = Field(domain, domain.mass * (np.cos(2.0 * np.pi * z) + x))
            _, report = solve_T(lp, psi)
            counts.append(report.iterations)
        assert counts[1] <= counts[0] + 2


def sphere_problem(subdivisions):
    domain = subsup.build_icosphere(subdivisions)
    return LinearProblem(domain, domain.field(2.0 + 0.5 * domain.coordinates[:, 2]))


class TestMultigridPreconditioner:
    @pytest.mark.parametrize("radius", [1.0, 2.5])
    @pytest.mark.parametrize("subdivisions", [1, 2, 3, 4, 5])
    def test_coarse_level_is_the_coarser_icosphere(self, subdivisions, radius):
        from subsup.geometry import _coarse_mesh

        fine = subsup.build_icosphere(subdivisions, radius=radius)
        coarse = subsup.build_icosphere(subdivisions - 1, radius=radius)
        coarse_count, _ = fine.refinement[-1]
        coordinates, faces = _coarse_mesh(fine.coordinates, fine.faces, coarse_count)
        assert np.array_equal(coordinates, coarse.coordinates)
        assert np.array_equal(faces, coarse.faces)
        L, mass, _ = _assemble_surface(coordinates, faces)
        for got, expected in zip(L, coarse.L):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)
        assert np.array_equal(mass, coarse.mass)

    @pytest.mark.parametrize("subdivisions", [1, 2, 3, 4, 5])
    def test_prolongation_interpolates(self, subdivisions):
        from subsup.linear_operator import _prolong, _restrict

        domain = subsup.build_icosphere(subdivisions)
        coarse_count, parents = domain.refinement[-1]
        ends = np.ascontiguousarray(parents.T)
        n = domain.vertex_count
        assert np.array_equal(_prolong(np.ones(coarse_count), ends), np.ones(n))
        rng = np.random.default_rng(subdivisions)
        y = rng.standard_normal(coarse_count)
        Py = _prolong(y, ends)
        assert np.array_equal(Py[:coarse_count], y)
        assert np.array_equal(Py[coarse_count:], 0.5 * (y[parents[:, 0]] + y[parents[:, 1]]))
        # restriction is the adjoint: x . (P y) = (R x) . y within rounding,
        # each side a sum of at most n products, so within n eps of exact
        x = rng.standard_normal(n)
        Rx = _restrict(x, ends)
        assert Rx.shape == (coarse_count,)
        scale = np.abs(x) @ np.abs(Py)
        assert abs(x @ Py - Rx @ y) <= 2 * n * np.finfo(float).eps * scale

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
        assert np.abs(u - expected).max() <= 1e-8

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
        u_mg, r_mg = solve_T(multigrid, Field(multigrid.domain, values), tol=1e-12)
        u_j, r_j = solve_T(jacobi, Field(domain, values), tol=1e-12)
        scale = np.abs(u_j).max()
        assert np.abs(u_mg - u_j).max() <= 1e-9 * scale
        assert 10 * r_mg.iterations < r_j.iterations

    def test_held_memory_in_vertex_vectors(self):
        # what the built V-cycle holds, in float64 vectors of the vertex
        # count, on icosphere 5: 10.3, as the finest level smooths with
        # A's own diagonal; 11.3 while it formed a copy of it.  Under an
        # outer trace (PYTHONTRACEMALLOC) the test measures from the
        # traced size at its start and leaves the trace running
        lp = sphere_problem(5)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            lp.preconditioner
            held = tracemalloc.get_traced_memory()[0]
        finally:
            if started:
                tracemalloc.stop()
        assert (held - before) / (8 * lp.domain.vertex_count) <= 10.75

    def test_iterations_independent_of_subdivisions(self):
        counts = []
        for subdivisions in (3, 5):
            lp = sphere_problem(subdivisions)
            x, _, z = lp.domain.coordinates.T
            psi = Field(lp.domain, lp.domain.mass * (np.cos(3.0 * z) + x))
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
        assert np.abs(warm - cold).max() <= 1e-9
        assert report.iterations <= 2

    def test_unreachable_tolerance_raises(self):
        lp = sphere_problem(3)
        psi = random_dual(lp.domain, np.random.default_rng(73))
        with pytest.raises(ConvergenceError) as exc:
            solve_T(lp, psi, tol=1e-40)
        assert exc.value.report.iterations > 0


def backend_problem(case, tmp_path):
    """A problem on each preconditioner path: FFT, multigrid, Jacobi."""
    rng = np.random.default_rng(5)
    if case == "fft":
        domain = subsup.build_flat_torus([(8, 1.0)] * 3)
    elif case == "multigrid":
        domain = subsup.build_icosphere(3)
    else:
        domain = as_off(subsup.build_icosphere(2), tmp_path / "ico2.off")
    return LinearProblem(domain, random_positive_field(domain, rng)), rng


class TestReturnedAction:
    @pytest.mark.parametrize("case", ["fft", "multigrid", "jacobi"])
    def test_ax_is_the_csr_matvec_of_the_solution(self, case, tmp_path):
        lp, rng = backend_problem(case, tmp_path)
        u, report = solve_T(lp, random_dual(lp.domain, rng), tol=1e-11)
        A = lp.system_matrix
        assert np.array_equal(report.Ax, csr_matvec_reference(A, u))
        assert_within_rounding(report.Ax, A, u)

    @pytest.mark.parametrize("case", ["fft", "multigrid", "jacobi"])
    def test_handing_ax0_back_changes_no_bit(self, case, tmp_path):
        lp, rng = backend_problem(case, tmp_path)
        x0, first = solve_T(lp, random_dual(lp.domain, rng), tol=1e-11)
        psi = random_dual(lp.domain, rng)
        plain, plain_report = solve_T(lp, psi, tol=1e-11, x0=x0)
        handed, report = solve_T(lp, psi, tol=1e-11, x0=x0, Ax0=first.Ax)
        assert np.array_equal(handed, plain)
        assert np.array_equal(report.Ax, plain_report.Ax)
        assert report.energy_history == plain_report.energy_history

    @pytest.mark.parametrize("case", ["fft", "multigrid", "jacobi"])
    def test_no_start_is_the_zero_start(self, case, tmp_path):
        lp, rng = backend_problem(case, tmp_path)
        psi = random_dual(lp.domain, rng)
        cold, cold_report = solve_T(lp, psi, tol=1e-11)
        zero, report = solve_T(lp, psi, tol=1e-11, x0=np.zeros(lp.domain.vertex_count))
        assert np.array_equal(cold, zero)
        assert cold_report.iterations == report.iterations
        assert cold_report.energy_history == report.energy_history
        assert np.array_equal(cold_report.Ax, report.Ax)

    @pytest.mark.parametrize("case", ["fft", "multigrid", "jacobi"])
    def test_one_preconditioner_application_per_iteration(
        self, case, tmp_path, monkeypatch
    ):
        # a sweep that meets the stop rule forms no z = P r it would not use
        lp, rng = backend_problem(case, tmp_path)
        precondition, calls = lp.preconditioner, []

        def counted(r):
            calls.append(r)
            return precondition(r)

        counting = property(lambda _: counted)
        monkeypatch.setattr(LinearProblem, "preconditioner", counting)
        _, report = solve_T(lp, random_dual(lp.domain, rng), tol=1e-11)
        assert report.iterations > 1
        assert len(calls) == report.iterations

    @pytest.mark.parametrize("case", ["fft", "multigrid", "jacobi"])
    def test_a_stalled_true_residual_fails_fast(self, case, tmp_path):
        # below the rounding floor: each sweep ends at about the same true
        # residual, and sweeps used to repeat until the cap of 10 n iterations
        lp, rng = backend_problem(case, tmp_path)
        with pytest.raises(ConvergenceError, match="not attainable") as exc:
            solve_T(lp, random_dual(lp.domain, rng), tol=1e-17)
        # at most a tenth of the cap
        assert 0 < exc.value.report.iterations <= lp.domain.vertex_count
        assert exc.value.report.Ax is None


class TestRestartSweep:
    @pytest.mark.parametrize("case,tol", [("torus16", 1e-14), ("icosphere4", 1e-13)])
    def test_a_failed_recheck_starts_a_sweep_that_converges(
        self, case, tol, monkeypatch
    ):
        # the first lower-side solve of the benchmark's iteration,
        # psi = S(0.01) for f = h = 0.5, F = t^5, H = t^0.5, from x0 = 0.01:
        # the recurrence residual passes before the true one does (on
        # torus 8^3 the first re-check passes at every tol down to the
        # rounding floor, where the solve stalls)
        if case == "torus16":
            domain = subsup.build_flat_torus([(16, 1.0)] * 3)
            lp = LinearProblem(domain, domain.field(2.0))
        else:
            lp = sphere_problem(4)
        psi = Field(lp.domain, lp.domain.mass * 0.5 * (0.01**5 + 0.01**0.5))
        x0 = np.full(lp.domain.vertex_count, 0.01)
        Ax0 = lp.domain.L.product(x0, lp.diagonal)
        precondition, applications = lp.preconditioner, []

        def counted(r):
            applications.append(r)
            return precondition(r)

        product, vectors = SlotLayout.product, []

        def spy(layout, v, diagonal):
            vectors.append(v)
            return product(layout, v, diagonal)

        counting = property(lambda _: counted)
        monkeypatch.setattr(LinearProblem, "preconditioner", counting)
        monkeypatch.setattr(SlotLayout, "product", spy)
        u, report = solve_T(lp, psi, tol=tol, x0=x0, Ax0=Ax0)
        # the search directions are fresh arrays, and CG updates its iterate
        # in place: each product with the returned array is a re-check
        assert sum(v is u for v in vectors) >= 2
        assert len(applications) == report.iterations
        assert report.final_residual_norm <= tol * np.linalg.norm(psi.values)
        assert np.array_equal(report.Ax, csr_matvec_reference(lp.system_matrix, u))


class TestShiftedSolve:
    @pytest.mark.parametrize("case", ["fft", "multigrid", "jacobi"])
    def test_solves_the_shifted_system(self, case, tmp_path):
        # A - diag(shift) stays positive definite while shift < m a
        lp, rng = backend_problem(case, tmp_path)
        shift = rng.uniform(0.0, 0.9, lp.domain.vertex_count)
        shift *= lp.domain.mass * lp.a.values
        psi = random_dual(lp.domain, rng)
        u, report = solve_T(lp, psi, tol=1e-11, shift=shift)
        J = lp.system_matrix.toarray() - np.diag(shift)
        residual = np.linalg.norm(J @ u - psi.values)
        assert residual <= 2e-11 * np.linalg.norm(psi.values)
        rounding = 1e-12 * (np.abs(J) @ np.abs(u))
        assert np.all(np.abs(report.Ax - J @ u) <= rounding)
        expected = np.linalg.solve(J, psi.values)
        assert np.abs(u - expected).max() <= 1e-8 * np.abs(expected).max()

    @pytest.mark.parametrize("case", ["fft", "multigrid", "jacobi"])
    def test_zero_shift_changes_no_bit(self, case, tmp_path):
        lp, rng = backend_problem(case, tmp_path)
        psi = random_dual(lp.domain, rng)
        plain, plain_report = solve_T(lp, psi, tol=1e-11)
        shifted, report = solve_T(
            lp, psi, tol=1e-11, shift=np.zeros(lp.domain.vertex_count)
        )
        assert np.array_equal(shifted, plain)
        assert np.array_equal(report.Ax, plain_report.Ax)

    def test_indefinite_shift_raises(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = Field(icosphere2, icosphere2.mass)
        with pytest.raises(ConvergenceError, match="not positive definite"):
            solve_T(lp, psi, shift=3.0 * lp.diagonal)


class TestSlotMatvec:
    @pytest.mark.parametrize("case", ["fft", "multigrid", "jacobi", "hub", "cube"])
    def test_bitwise_the_csr_matvec(self, case, tmp_path):
        from tests.test_geometry import bipyramid_off, cube_off

        if case in ("fft", "multigrid", "jacobi"):
            lp, _ = backend_problem(case, tmp_path)
        else:
            if case == "hub":  # the apexes' entries go to the scatter
                domain = bipyramid_off(tmp_path / "bipyramid.off", 300)
            else:
                domain = cube_off(tmp_path / "cube.off")
            a = random_positive_field(domain, np.random.default_rng(3))
            lp = LinearProblem(domain, a)
        A = lp.system_matrix
        n = lp.domain.vertex_count
        rng = np.random.default_rng(13)
        for x in (rng.standard_normal(n), np.zeros(n), -np.zeros(n), np.ones(n)):
            got = lp.domain.L.product(x, lp.diagonal)
            expected = csr_matvec_reference(A, x)
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))
            assert_within_rounding(got, A, x)


class TestCoarseInverse:
    @pytest.mark.parametrize("subdivisions", [0, 1, 2])
    def test_inverts_the_system_matrix(self, subdivisions):
        from subsup.linear_operator import _spd_inverse

        A = sphere_problem(subdivisions).system_matrix.toarray()
        inverse = _spd_inverse(A)
        n = A.shape[0]
        assert np.abs(inverse @ A - np.eye(n)).max() <= 1e-13
        assert np.abs(inverse - inverse.T).max() <= 1e-13 * np.abs(inverse).max()
        assert np.abs(inverse - np.linalg.inv(A)).max() <= 1e-13 * np.abs(inverse).max()

    @pytest.mark.parametrize("a", ["2+0.5*z", "1", "0.05+3*x*x"])
    def test_by_halves_matches_gauss_jordan_and_a_dense_solve(self, a):
        # the coarsest multigrid level, icosphere 2 (162 rows): halves of
        # 81, 40 and 41, then 20 and 21 rows, which go to Gauss-Jordan
        from subsup.linear_operator import _spd_inverse, _spd_inverse_by_halves

        domain = subsup.build_icosphere(2)
        problem = LinearProblem(domain, subsup.parse_coefficient(a, domain))
        A = problem.system_matrix.toarray()
        inverse = _spd_inverse_by_halves(A)
        scale = np.abs(inverse).max()
        assert np.abs(inverse - _spd_inverse(A)).max() <= 1e-14 * scale
        solved = np.linalg.solve(A, np.eye(A.shape[0]))
        assert np.abs(inverse - solved).max() <= 1e-14 * scale
        assert np.abs(inverse - inverse.T).max() <= 1e-15 * scale

    def test_v_cycle_on_the_identity_is_symmetric_positive_definite(self):
        # icosphere 3: one smoothed level above the coarsest, whose inverse
        # is formed by halves
        precondition = sphere_problem(3).preconditioner
        n = 642
        B = np.stack([precondition(column) for column in np.eye(n)], axis=1)
        assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()
        assert np.linalg.eigvalsh(0.5 * (B + B.T)).min() > 0.0


def h1_gram(domain):
    """L + M as a dense matrix, the Gram matrix of the discrete H1 product."""
    return domain.stiffness.toarray() + np.diag(domain.mass)


def lipschitz_pair(lp, psi1, psi2):
    """(||T psi1 - T psi2||_H1, ||psi1 - psi2||_* / min(1, min a)).

    The dual norm is ||r||_*^2 = r' (L + M)^{-1} r, from a dense solve.
    """
    H = h1_gram(lp.domain)
    u1, _ = solve_T(lp, psi1, tol=1e-12)
    u2, _ = solve_T(lp, psi2, tol=1e-12)
    d = u1 - u2
    r = psi1.values - psi2.values
    coercivity = min(1.0, float(lp.a.values.min()))
    return np.sqrt(d @ H @ d), np.sqrt(r @ np.linalg.solve(H, r)) / coercivity


def assert_ordered(lp, lo, hi):
    """lo <= hi entrywise gives T lo <= T hi, up to the solves' tolerance.

    This is the comparison principle, which holds where A is an M-matrix.
    """
    assert subsup.mesh_quality(lp.domain).is_m_matrix_compatible
    assert np.all(lo.values <= hi.values)
    u1, _ = solve_T(lp, lo, tol=1e-10)
    u2, _ = solve_T(lp, hi, tol=1e-10)
    assert np.all(u1 <= u2 + 1e-9 * np.abs(u2).max())


class TestComparison:
    def test_constants_are_ordered(self, torus8):
        lp = LinearProblem(torus8, torus8.field(1.0))
        zero = Field(torus8, torus8.mass * 0.0)
        assert_ordered(lp, zero, Field(torus8, torus8.mass))

    def test_ordered_rhs_gives_ordered_solutions(self, icosphere2):
        rng = np.random.default_rng(23)
        lp = LinearProblem(icosphere2, random_positive_field(icosphere2, rng))
        for _ in range(10):
            lo = random_dual(icosphere2, rng)
            hi_vals = lo.values + rng.uniform(0.0, 1.0, icosphere2.vertex_count)
            assert_ordered(lp, lo, Field(icosphere2, hi_vals))

    def test_equal_rhs_passes(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        psi = Field(icosphere2, icosphere2.mass)
        u1, _ = solve_T(lp, psi)
        u2, _ = solve_T(lp, psi)
        assert np.array_equal(u1, u2)


class TestLipschitz:
    def test_certificate_holds(self, icosphere2):
        rng = np.random.default_rng(31)
        for _ in range(5):
            lp = LinearProblem(icosphere2, random_positive_field(icosphere2, rng, 0.3, 4.0))
            lhs, rhs = lipschitz_pair(
                lp, random_dual(icosphere2, rng), random_dual(icosphere2, rng)
            )
            assert lhs <= rhs + 1e-9

    def test_equality_when_a_is_one(self, icosphere2):
        # C = 1 and the operator equals L + M, so the bound is sharp
        rng = np.random.default_rng(37)
        lp = LinearProblem(icosphere2, icosphere2.field(1.0))
        lhs, rhs = lipschitz_pair(
            lp, random_dual(icosphere2, rng), random_dual(icosphere2, rng)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_identical_rhs_gives_zero_pair(self, icosphere2):
        lp = LinearProblem(icosphere2, icosphere2.field(2.0))
        psi = Field(icosphere2, icosphere2.mass)
        assert lipschitz_pair(lp, psi, psi) == (0.0, 0.0)

    def test_strict_gap_when_a_large(self, torus8):
        # a = 4 shrinks solutions more than the H1 pair (L + M), so the
        # certified bound is loose by a definite margin
        lp = LinearProblem(torus8, torus8.field(4.0))
        zero = Field(torus8, torus8.mass * 0.0)
        one = Field(torus8, torus8.mass)
        lhs, rhs = lipschitz_pair(lp, zero, one)
        assert lhs < rhs - 1e-6


class TestCoercivity:
    def test_energy_lower_bound(self, icosphere2):
        # v' A v >= min(1, min a) v' (L + M) v
        rng = np.random.default_rng(43)
        a = random_positive_field(icosphere2, rng, 0.2, 5.0)
        lp = LinearProblem(icosphere2, a)
        A = lp.system_matrix
        H = h1_gram(icosphere2)
        C = min(1.0, float(a.values.min()))
        for _ in range(20):
            v = rng.standard_normal(icosphere2.vertex_count)
            energy = v @ (A @ v)
            assert 0.5 * energy >= 0.5 * C * (v @ H @ v) - 1e-10
