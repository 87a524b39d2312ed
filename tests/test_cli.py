import json
import os
import re
import subprocess
import sys
import warnings

import pytest

from subsup.cli import main
from subsup.scenario import build_domain, load_scenario
from subsup.serialize import dumps

from tests.conftest import base_torus_doc
from tests.test_scenario import MALFORMED, malformed_doc
from tests.test_serialize import per_item


def read_masked(path):
    """summary.json with the wall-clock line blanked for comparison."""
    text = path.read_text()
    return re.sub(r'"wall_time": [^,\n]+', '"wall_time": 0', text)


class TestCheck:
    def test_passing_scenario(self, tmp_scenario, capsys):
        assert main(["check", tmp_scenario(base_torus_doc())]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4

    def test_json_report(self, tmp_scenario, tmp_path):
        out = tmp_path / "report.json"
        assert main(["check", tmp_scenario(base_torus_doc()), "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] is True
        assert doc["alpha1"]["passed"] is True
        assert doc["lower"]["passed"] is True

    def test_bad_bracket_fails(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["bracket"] = {"lower": 0.5, "upper": 1.0}
        assert main(["check", tmp_scenario(doc)]) == 1
        out = capsys.readouterr().out
        assert "lower solution check: FAIL" in out
        assert "vertex" in out

    def test_unordered_bracket_fails(self, tmp_scenario, capsys):
        # u = 5 satisfies the lower defect sign on its own, so only the
        # ordering against the upper side can catch this one
        doc = base_torus_doc()
        doc["bracket"] = {"lower": 5.0, "upper": 1.0}
        assert main(["check", tmp_scenario(doc)]) == 1
        out = capsys.readouterr().out
        assert "lower solution check: FAIL (lower exceeds upper at vertex 0)" in out
        assert "upper solution check: PASS" in out

    def test_zero_lower_fails_as_in_solve(self, tmp_scenario, tmp_path, capsys):
        doc = base_torus_doc()
        doc["bracket"] = {"lower": 0.0, "upper": 1.0}
        path = tmp_scenario(doc)
        report = tmp_path / "report.json"
        assert main(["check", path, "--json", str(report)]) == 1
        out = capsys.readouterr().out
        assert "lower solution check: FAIL (identically zero)" in out
        assert "upper solution check: PASS" in out
        entry = json.loads(report.read_text())["lower"]
        assert entry == {
            "passed": False,
            "skipped": False,
            "vertex": None,
            "defect": None,
            "unordered": False,
        }
        assert main(["solve", path, "--out", str(tmp_path / "run")]) == 1
        assert "checks failed; not iterating" in capsys.readouterr().out

    def test_alpha2_failure(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["coefficients"]["f"] = 0.0
        assert main(["check", tmp_scenario(doc)]) == 1
        assert "alpha2 sign conditions: FAIL (f != 0)" in capsys.readouterr().out

    def test_alpha1_failure(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["nonlinearity"]["F"] = {"kind": "power", "p": 6.0}
        assert main(["check", tmp_scenario(doc)]) == 1
        assert "alpha1 growth bounds: FAIL" in capsys.readouterr().out

    def test_nonpositive_a_skips_bracket_checks(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["coefficients"]["a"] = -1.0
        assert main(["check", tmp_scenario(doc)]) == 1
        out = capsys.readouterr().out
        assert "SKIPPED" in out


class TestInputErrors:
    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/scenario.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["check", str(path)]) == 2

    def test_missing_key(self, tmp_scenario):
        doc = base_torus_doc()
        del doc["bracket"]
        assert main(["check", tmp_scenario(doc)]) == 2

    def test_bad_expression(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["coefficients"]["a"] = "2 +* 3"
        assert main(["check", tmp_scenario(doc)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_expression(self, tmp_scenario):
        doc = base_torus_doc()
        doc["coefficients"]["a"] = "1/(x-x)"
        assert main(["check", tmp_scenario(doc)]) == 2

    def test_tiny_axis_length(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["domain"]["dims"][0][1] = 1e-300
        assert main(["check", tmp_scenario(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "axis lengths" in captured.err

    @pytest.mark.parametrize("radius", [1e160, 1e300, 1e-160, 1e-300])
    def test_radius_outside_float_range(self, radius, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["domain"] = {"kind": "icosphere", "subdivisions": 1, "radius": radius}
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning escapes main()
            assert main(["check", tmp_scenario(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.startswith("error: radius")

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_scenario_exits_2_before_any_check(
        self, case, tmp_scenario, tmp_path, capsys
    ):
        path = tmp_scenario(malformed_doc(case))
        assert main(["check", path]) == 2
        assert main(["solve", path, "--out", str(tmp_path / "run")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # one line per command, naming the field
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert all(f"'{MALFORMED[case][0]}'" in line for line in lines)
        assert not (tmp_path / "run").exists()


class TestSolve:
    def test_writes_artifacts(self, tmp_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", tmp_scenario(base_torus_doc()), "--out", str(out)]) == 0
        for name in ("solution.json", "solution.csv", "trace.csv", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["coincide"] is True
        assert "ordering_violations" not in summary
        assert summary["min_u_star"] > 0.0
        assert summary["bracket_verified"] == [True, True]
        assert sorted(summary["restarts"]) == ["lower", "upper"]
        assert min(summary["restarts"].values()) > 0
        assert "converged" in capsys.readouterr().out

    def test_deterministic_artifacts(self, tmp_scenario, tmp_path):
        spath = tmp_scenario(base_torus_doc())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", spath, "--out", str(a)]) == 0
        assert main(["solve", spath, "--out", str(b)]) == 0
        for name in ("solution.json", "solution.csv", "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert read_masked(a / "summary.json") == read_masked(b / "summary.json")

    def test_scenario_tol_and_tol_override_agree(self, tmp_scenario, tmp_path):
        # one tol sets T's tolerance too, however it is passed
        with open(SHIPPED_SPHERE) as fh:
            doc = json.load(fh)
        doc["solver"]["tol"] = 1e-6
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", tmp_scenario(doc), "--out", str(a)]) == 0
        assert main(["solve", SHIPPED_SPHERE, "--out", str(b), "--tol", "1e-6"]) == 0
        for name in ("solution.json", "solution.csv", "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert read_masked(a / "summary.json") == read_masked(b / "summary.json")

    def test_max_steps_exhaustion(self, tmp_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["solve", tmp_scenario(base_torus_doc()), "--out", str(out), "--max-steps", "2"]
        )
        assert code == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is False
        assert summary["steps"] == 2
        assert (out / "solution.csv").exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--tol", "nan"),
            ("--tol", "inf"),
            ("--tol", "-1"),
            ("--tol", "0"),
            ("--max-steps", "0"),
            ("--max-steps", "-3"),
        ],
    )
    def test_bad_override_exits_2_before_any_check(
        self, flag, value, tmp_scenario, tmp_path, capsys
    ):
        out = tmp_path / "run"
        path = tmp_scenario(base_torus_doc())
        assert main(["solve", path, "--out", str(out), flag, value]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert f"'{flag}'" in captured.err
        assert not out.exists()

    def test_tol_override(self, tmp_scenario, tmp_path):
        path = tmp_scenario(base_torus_doc())
        steps = {}
        for label, extra in (("default", []), ("loose", ["--tol", "1e-6"])):
            out = tmp_path / label
            assert main(["solve", path, "--out", str(out)] + extra) == 0
            steps[label] = json.loads((out / "summary.json").read_text())["steps"]
        assert steps["loose"] < steps["default"]  # looser tolerance stops earlier

    def test_fixed_point_bracket_converges_immediately(self, tmp_scenario, tmp_path):
        from tests.conftest import scalar_fixed_point

        c = scalar_fixed_point()
        doc = base_torus_doc()
        doc["bracket"] = {"lower": c, "upper": c}
        out = tmp_path / "run"
        assert main(["solve", tmp_scenario(doc), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["steps"] <= 1
        assert summary["coincide"] is True

    def test_checks_use_the_tol_override(self, tmp_scenario, tmp_path, capsys):
        # just below the fixed point the upper defect is about -5e-14 of
        # max|M a v|: within the scenario's tol 1e-9 but not within 1e-15,
        # where solve verifies
        from tests.conftest import scalar_fixed_point

        c = scalar_fixed_point() * (1.0 - 1e-13)
        doc = base_torus_doc()
        doc["bracket"] = {"lower": c, "upper": c}
        assert main(["check", tmp_scenario(doc)]) == 0
        capsys.readouterr()
        out = tmp_path / "run"
        code = main(["solve", tmp_scenario(doc), "--out", str(out), "--tol", "1e-15"])
        assert code == 1
        captured = capsys.readouterr()
        assert "upper solution check: FAIL" in captured.out
        assert "checks failed; not iterating" in captured.out
        assert captured.err == ""

    def test_summary_matches_artifacts(self, tmp_scenario, tmp_path):
        out = tmp_path / "run"
        assert main(["solve", tmp_scenario(base_torus_doc()), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        solution = json.loads((out / "solution.json").read_text())
        assert summary["coincide"] == solution["coincide"]
        assert summary["min_u_star"] == min(solution["u_star"])
        assert summary["residuals"]["lower"] == solution["residual_lower"]
        assert summary["residuals"]["upper"] == solution["residual_upper"]
        rows = (out / "trace.csv").read_text().strip().split("\n")[1:]
        assert summary["steps"] == max(int(r.split(",")[0]) for r in rows)
        csv_u = [float(r.split(",")[1]) for r in
                 (out / "solution.csv").read_text().strip().split("\n")[1:]]
        assert csv_u == solution["u_star"]

    def test_bracket_rule_runs_once(self, monkeypatch, tmp_scenario, tmp_path):
        # once on the input bracket; inside the iteration only on restart
        # points, at the run's tol or tighter
        import subsup.cli
        import subsup.iteration

        real = subsup.iteration.bracket_failures
        real_iterate = subsup.cli.iterate_monotone
        calls = {"outside": [], "inside": []}
        where = ["outside"]

        def counted(*args, **kwargs):
            calls[where[0]].append(args)
            return real(*args, **kwargs)

        def iterate(*args, **kwargs):
            where[0] = "inside"
            try:
                return real_iterate(*args, **kwargs)
            finally:
                where[0] = "outside"

        # replace the rule wherever a caller looks it up
        for name, module in list(sys.modules.items()):
            if name.startswith("subsup") and getattr(module, "bracket_failures", None) is real:
                monkeypatch.setattr(module, "bracket_failures", counted)
        monkeypatch.setattr(subsup.cli, "iterate_monotone", iterate)
        out = tmp_path / "run"
        assert main(["solve", tmp_scenario(base_torus_doc()), "--out", str(out)]) == 0
        assert len(calls["outside"]) == 1
        restarts = json.loads((out / "summary.json").read_text())["restarts"]
        assert 0 < max(restarts.values()) <= len(calls["inside"])
        assert all(args[-1] <= 1e-9 for args in calls["inside"])

    def test_disconnected_domain_is_not_certified_positive(
        self, tmp_scenario, tmp_path, capsys
    ):
        from tests.test_geometry import write_off

        verts = [
            (0, 0, 0), (1, 0, 0), (0, 1, 0),
            (10, 0, 0), (11, 0, 0), (10, 1, 0),
        ]
        write_off(tmp_path / "d.off", verts, [(0, 1, 2), (3, 4, 5)])
        doc = base_torus_doc()
        doc["domain"] = {"kind": "off", "path": "d.off"}
        out = tmp_path / "run"
        assert main(["solve", tmp_scenario(doc), "--out", str(out)]) == 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["min_u_star"] > 0.0
        printed = capsys.readouterr().out
        assert "domain is not connected; positivity is not certified" in printed
        assert "positivity failed" not in printed

    @pytest.mark.parametrize(
        "domain",
        [
            {"kind": "flat_torus", "dims": [[8, 1.0]] * 3},
            {"kind": "icosphere", "subdivisions": 4, "radius": 1.0},
        ],
        ids=["torus8", "icosphere4"],
    )
    def test_unattainable_linear_tol_fails_fast(
        self, domain, monkeypatch, tmp_scenario, tmp_path, capsys
    ):
        # --tol 1e-12 asks CG for 1e-14, below what rounding leaves; the
        # first solve used to run to the cap of 10 n iterations
        import subsup.iteration
        from subsup import ConvergenceError

        real = subsup.iteration.solve_T
        errors = []

        def solve_T(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            except ConvergenceError as exc:
                errors.append(exc)
                raise

        monkeypatch.setattr(subsup.iteration, "solve_T", solve_T)
        doc = base_torus_doc()
        doc["domain"] = domain
        out = tmp_path / "run"
        args = ["solve", tmp_scenario(doc), "--out", str(out), "--tol", "1e-12"]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "linear tolerance not attainable" in err
        (exc,) = errors
        assert 0 < exc.report.iterations <= 50
        assert not (out / "summary.json").exists()

    def test_refuses_bad_scenario(self, tmp_scenario, tmp_path, capsys):
        doc = base_torus_doc()
        doc["coefficients"]["f"] = 0.0
        out = tmp_path / "run"
        assert main(["solve", tmp_scenario(doc), "--out", str(out)]) == 1
        assert not (out / "solution.json").exists()
        assert "not iterating" in capsys.readouterr().out


class TestSpectrum:
    def test_prints_eigenvalues(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["domain"] = {"kind": "icosphere", "subdivisions": 2}
        assert main(["spectrum", tmp_scenario(doc), "--k", "4"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        values = [float(s) for s in lines]
        assert len(values) == 4
        assert values[0] == pytest.approx(0.0, abs=1e-8)
        assert values[1] == pytest.approx(2.0, rel=0.1)

    def test_k_one_finds_the_nullspace(self, tmp_scenario, capsys):
        assert main(["spectrum", tmp_scenario(base_torus_doc()), "--k", "1"]) == 0
        value = float(capsys.readouterr().out.strip())
        assert abs(value) <= 1e-8

    def test_size_guard(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["domain"] = {"kind": "flat_torus", "dims": [[20, 1.0]] * 3}  # 8000
        assert main(["spectrum", tmp_scenario(doc), "--k", "3"]) == 2
        assert "5000" in capsys.readouterr().err


class TestMeshInfo:
    def test_reports_fields(self, tmp_scenario, capsys):
        assert main(["mesh-info", tmp_scenario(base_torus_doc())]) == 0
        out = capsys.readouterr().out
        assert "kind: flat_torus" in out
        assert "vertices: 512" in out
        assert "m-matrix compatible: true" in out
        assert "connected: true" in out

    def test_json_export(self, tmp_scenario, tmp_path):
        out = tmp_path / "domain.json"
        doc = base_torus_doc()
        doc["domain"] = {"kind": "icosphere", "subdivisions": 1}
        assert main(["mesh-info", tmp_scenario(doc), "--json", str(out)]) == 0
        exported = json.loads(out.read_text())
        assert exported["kind"] == "icosphere"
        assert exported["vertex_count"] == 42

    @pytest.mark.parametrize(
        "domain",
        [
            {"kind": "icosphere", "subdivisions": 2},
            {"kind": "flat_torus", "dims": [[4, 1.0], [5, 2.0], [3, 0.5]]},
        ],
    )
    def test_json_export_matches_per_item_rendering(self, tmp_scenario, tmp_path, domain):
        doc = base_torus_doc()
        doc["domain"] = domain
        path = tmp_scenario(doc)
        out = tmp_path / "domain.json"
        assert main(["mesh-info", path, "--json", str(out)]) == 0
        d = build_domain(load_scenario(path))
        slow = {
            "kind": d.kind,
            "vertex_count": d.vertex_count,
            "coordinates": [[float(c) for c in row] for row in d.coordinates],
        }
        if d.is_surface:
            slow["faces"] = [[int(i) for i in row] for row in d.faces]
        else:
            slow["grid"] = {"cells": list(d.grid_cells), "lengths": list(d.grid_lengths)}
        assert out.read_text() == dumps(per_item(slow))


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(base_torus_doc()))
        proc = subprocess.run(
            [sys.executable, "-m", "subsup.cli", "check", str(spath)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 4


SCENARIOS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios"
)
SHIPPED_SPHERE = os.path.join(SCENARIOS, "sphere_variable.json")
SHIPPED_TORUS = os.path.join(SCENARIOS, "torus_constant.json")

LAZY_IMPORTS_SCRIPT = """
import sys

def loaded():
    return sorted(m for m in ("scipy.sparse.csgraph", "scipy.sparse.linalg") if m in sys.modules)

# scipy releases before lazy submodule loading import both with scipy.sparse
import scipy.sparse
base = loaded()
from subsup.cli import main
assert loaded() == base, loaded()
assert main(["check", sys.argv[1]]) == 0
assert loaded() == base, loaded()
# a torus is connected by construction and solved by FFT
assert main(["solve", sys.argv[3], "--out", sys.argv[2] + "-torus"]) == 0
assert loaded() == base, loaded()
assert main(["solve", sys.argv[1], "--out", sys.argv[2]]) == 0
assert main(["spectrum", sys.argv[1], "--k", "3"]) == 0
assert main(["mesh-info", sys.argv[1]]) == 0
print("lazy imports ok")
"""


class TestLazyImports:
    def test_check_loads_no_solve_only_scipy_module(self, tmp_path):
        # a fresh interpreter: this test process has loaded them already
        import subsup

        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(subsup.__file__))
        proc = subprocess.run(
            [
                sys.executable, "-c", LAZY_IMPORTS_SCRIPT,
                SHIPPED_SPHERE, str(tmp_path / "out"), SHIPPED_TORUS,
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip().endswith("lazy imports ok")
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out-torus" / "summary.json").exists()
