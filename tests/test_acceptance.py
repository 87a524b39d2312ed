"""End-to-end acceptance suite.

Each test covers one numbered criterion and emits a single pass line on
success; a failed assertion leaves the corresponding FAILED line in the
pytest report instead.
"""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

import subsup
from subsup import ScalarNonlinearity
from subsup.cli import main

from tests.conftest import base_torus_doc, make_constant_problem
from tests.test_linear_operator import assert_ordered, h1_gram, lipschitz_pair

REPO_ROOT = Path(__file__).resolve().parents[1]
TORUS_SCENARIO = str(REPO_ROOT / "scenarios" / "torus_constant.json")


@pytest.fixture(scope="module")
def torus_cli_run(tmp_path_factory):
    """One default-mode cmd_solve on the shipped constant-coefficient
    scenario; returns artifacts plus wall time."""
    out = tmp_path_factory.mktemp("torus_run")
    t0 = time.perf_counter()
    code = main(["solve", TORUS_SCENARIO, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    solution = json.loads((out / "solution.json").read_text())
    summary = json.loads((out / "summary.json").read_text())
    return {"code": code, "elapsed": elapsed, "solution": solution, "summary": summary}


@pytest.fixture(scope="module")
def sphere_run(icosphere3):
    a = subsup.parse_coefficient("2+0.5*z", icosphere3)
    prob = subsup.NonlinearProblem(
        icosphere3, a, 0.5, 0.5,
        ScalarNonlinearity.power(5.0), ScalarNonlinearity.power(0.5), n=3,
    )
    br = subsup.make_bracket(prob, icosphere3.field(0.01), icosphere3.field(1.0))
    pair, trace = subsup.iterate_monotone(prob, br, tol=1e-9)
    return {"pair": pair, "trace": trace}


def test_criterion_1_constant_coefficient_oracle(torus_cli_run, c_star):
    assert torus_cli_run["code"] == 0
    assert torus_cli_run["elapsed"] <= 10.0
    u = np.array(torus_cli_run["solution"]["u_star"])
    assert u.max() - u.min() <= 1e-7
    assert np.abs(u - c_star).max() <= 1e-8
    print("criterion 1: PASS (constant-coefficient solve matches the scalar "
          "bisection oracle)")


def test_criterion_2_monotone_chains(torus_cli_run, sphere_run):
    # a bend of the chain raises OrderingError, so a finished run is intact
    assert torus_cli_run["summary"]["converged"] is True
    assert "ordering_violations" not in torus_cli_run["summary"]
    assert sphere_run["trace"].converged
    print("criterion 2: PASS (both recorded runs finished with an intact chain)")


def test_criterion_3_sandwich_and_positivity(torus_cli_run, sphere_run):
    slack = 1e-9
    u = np.array(torus_cli_run["solution"]["u_star"])
    up = np.array(torus_cli_run["solution"]["u_upper_star"])
    assert u.min() >= 0.01 - slack and up.max() <= 1.0 + slack
    assert np.all(u <= up + slack)
    assert torus_cli_run["summary"]["min_u_star"] > 0.0

    pair = sphere_run["pair"]
    assert pair.u_star.values.min() >= 0.01 - slack
    assert pair.u_upper_star.values.max() <= 1.0 + slack
    assert np.all(pair.u_star.values <= pair.u_upper_star.values + slack)
    assert pair.u_star.values.min() > 0.0
    print("criterion 3: PASS (lower <= u_* <= u^* <= upper and min u_* > 0)")


def test_criterion_4_linear_operator_suite(icosphere2, torus8):
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    # (a) uniqueness: the solve is start-independent to 10*tol
    tol = 1e-10
    for _ in range(10):
        lp = subsup.LinearProblem(icosphere2, icosphere2.field(rng.uniform(0.5, 3.0, 162)))
        psi = subsup.Field(icosphere2, rng.standard_normal(162))
        u_cold, _ = subsup.solve_T(lp, psi, tol=tol)
        warm_start = rng.uniform(-5.0, 5.0, 162)
        u_warm, _ = subsup.solve_T(lp, psi, tol=tol, x0=warm_start)
        assert np.abs(u_cold - u_warm).max() <= 10.0 * tol

    # (b) comparison: 100 ordered dual pairs give ordered solutions
    lp = subsup.LinearProblem(icosphere2, icosphere2.field(rng.uniform(0.5, 3.0, 162)))
    for _ in range(100):
        lo = subsup.Field(icosphere2, rng.standard_normal(162))
        hi = subsup.Field(icosphere2, lo.values + rng.uniform(0.0, 1.0, 162))
        assert_ordered(lp, lo, hi)

    # (c) continuity: certified Lipschitz bound on 20 random instances
    for k in range(20):
        domain = icosphere2 if k % 2 == 0 else torus8
        n = domain.vertex_count
        lp = subsup.LinearProblem(domain, domain.field(rng.uniform(0.3, 4.0, n)))
        lhs, rhs = lipschitz_pair(
            lp,
            subsup.Field(domain, rng.standard_normal(n)),
            subsup.Field(domain, rng.standard_normal(n)),
        )
        assert lhs <= rhs + 1e-9

    # (d) coercivity: energy dominates C * ||v||_H1^2 on 100 random vectors
    H = h1_gram(icosphere2)
    for k in range(10):
        lp = subsup.LinearProblem(icosphere2, icosphere2.field(rng.uniform(0.2, 5.0, 162)))
        A = lp.system_matrix
        C = min(1.0, float(lp.a.values.min()))
        for _ in range(10):
            v = rng.standard_normal(162)
            energy = v @ (A @ v)
            assert energy >= C * (v @ H @ v) - 1e-9 * abs(energy)

    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    print(f"criterion 4: PASS (uniqueness, comparison, continuity, coercivity "
          f"in {elapsed:.1f} s)")


def test_criterion_5_substitution_operator_suite(torus8):
    prob = make_constant_problem(torus8)
    rng = np.random.default_rng(41)
    n = torus8.vertex_count

    # monotone on 100 ordered pairs
    for _ in range(100):
        v = rng.uniform(-1.0, 2.0, n)
        w = v + rng.uniform(0.0, 1.0, n)
        sv = subsup.apply_S(prob, v).values
        sw = subsup.apply_S(prob, w).values
        assert np.all(sv <= sw + 1e-15)

    # truncation: negative parts contribute exactly nothing
    v = rng.uniform(-2.0, 2.0, n)
    sv = subsup.apply_S(prob, v).values
    sc = subsup.apply_S(prob, np.maximum(v, 0.0)).values
    assert np.array_equal(sv, sc)
    assert np.all(subsup.apply_S(prob, np.full(n, -1.0)).values == 0.0)

    # continuity: gaps under perturbations v + r/k decay at the rate set
    # by the nonlinearity's modulus where v sits
    def decay_slope(v):
        base = subsup.apply_S(prob, v).values
        r = rng.uniform(0.5, 1.0, n)
        ks = np.array([4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
        gaps = []
        for k in ks:
            shifted = subsup.apply_S(prob, v + r / k).values
            gaps.append(np.abs(shifted - base).max())
        gaps = np.array(gaps)
        assert np.all(np.diff(gaps) < 0.0)  # monotone decay to zero
        return np.polyfit(np.log(1.0 / ks), np.log(gaps), 1)[0]

    # at v = 0 the sqrt branch of H dominates: Hoelder 1/2
    slope_at_zero = decay_slope(np.zeros(n))
    assert abs(slope_at_zero - 0.5) <= 0.1
    # away from zero both branches are smooth: at least Lipschitz
    slope_positive = decay_slope(np.ones(n))
    assert slope_positive >= 0.9
    print(f"criterion 5: PASS (S monotone, truncation exact, continuity "
          f"slopes {slope_at_zero:.3f} at zero, {slope_positive:.3f} away)")


def test_criterion_6_geometry_validation(torus16_2d):
    sphere4 = subsup.build_icosphere(4)
    vals = subsup.generalized_spectrum(sphere4, 4)
    assert abs(vals[0]) <= 1e-8
    for v in vals[1:]:
        assert v == pytest.approx(2.0, rel=0.05)

    vals = subsup.generalized_spectrum(torus16_2d, 3)
    assert abs(vals[0]) <= 1e-8
    assert vals[1] == pytest.approx(1.0, rel=0.02)
    assert vals[2] == pytest.approx(1.0, rel=0.02)

    errors = [
        abs(subsup.build_icosphere(s).mass.sum() - 4.0 * np.pi) for s in (1, 2, 3)
    ]
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] <= 0.01 * 4.0 * np.pi
    print("criterion 6: PASS (sphere and torus spectra, area convergence)")


def test_criterion_7_hypothesis_checkers():
    F5 = ScalarNonlinearity.power(5.0)
    H = ScalarNonlinearity.power(0.5)

    assert subsup.check_alpha1(F5, H, 3, 0.5, 2.0).passed

    r = subsup.check_alpha1(ScalarNonlinearity.power(6.0), H, 3, 0.5, 2.0)
    assert not r.passed and r.clause == "F(t) <= t^(2*-1)" and r.t > 1.0

    table = ScalarNonlinearity.table([-0.5, 0.0, 1.0], [0.1, 0.1, 0.5], truncate=False)
    r = subsup.check_alpha1(table, H, 3, 0.5, 2.0)
    assert not r.passed and r.clause == "F(t) = 0 for t < 0"

    torus = subsup.build_flat_torus([(8, 1.0)] * 3)
    assert subsup.check_alpha2(make_constant_problem(torus)).passed

    r = subsup.check_alpha2(subsup.NonlinearProblem(torus, 2.0, 0.0, 0.5, F5, H, n=3))
    assert not r.passed and r.clause == "f != 0" and r.vertex is None

    a = np.full(torus.vertex_count, 2.0)
    a[5] = -0.1
    r = subsup.check_alpha2(subsup.NonlinearProblem(torus, a, 0.5, 0.5, F5, H, n=3))
    assert not r.passed and r.clause == "a > 0" and r.vertex == 5
    print("criterion 7: PASS (alpha1 and alpha2 checkers name the failing clause)")


def test_criterion_8_determinism_and_cli_contract(tmp_path):
    run_a, run_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", TORUS_SCENARIO, "--out", str(run_a)]) == 0
    assert main(["solve", TORUS_SCENARIO, "--out", str(run_b)]) == 0
    for name in ("solution.json", "solution.csv", "trace.csv"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
    # wall_time is the one intentionally time-dependent summary field
    mask = lambda p: re.sub(r'"wall_time": [^,\n]+', '"wall_time": 0', p.read_text())
    assert mask(run_a / "summary.json") == mask(run_b / "summary.json")

    assert main(["check", TORUS_SCENARIO]) == 0

    doc = base_torus_doc()
    doc["bracket"] = {"lower": 0.5, "upper": 1.0}
    bad_bracket = tmp_path / "bad_bracket.json"
    bad_bracket.write_text(json.dumps(doc))
    assert main(["check", str(bad_bracket)]) == 1

    assert main(["check", str(tmp_path / "missing.json")]) == 2

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{nope")
    assert main(["check", str(garbled)]) == 2

    doc = base_torus_doc()
    doc["coefficients"]["a"] = "1/(x-x)"
    bad_expr = tmp_path / "bad_expr.json"
    bad_expr.write_text(json.dumps(doc))
    assert main(["check", str(bad_expr)]) == 2
    print("criterion 8: PASS (byte-identical artifacts, exit codes 0/1/2)")
