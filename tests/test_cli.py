import json
import os
import re
import subprocess
import sys
import warnings

import pytest

from subsup.cli import main
from subsup.scenario import build_domain, load_scenario

from tests.conftest import base_torus_doc
from tests.test_scenario import MALFORMED, malformed_doc
from tests.test_serialize import dumps, per_item


def read_masked(path):
    """summary.json with the wall-clock line blanked for comparison."""
    text = path.read_text()
    return re.sub(r'"wall_time": [^,\n]+', '"wall_time": 0', text)


SCENARIOS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scenarios"
)
SHIPPED_SPHERE = os.path.join(SCENARIOS, "sphere_variable.json")
SHIPPED_TORUS = os.path.join(SCENARIOS, "torus_constant.json")


def run_python(script, *args, **environment):
    """Run script in a fresh interpreter that imports this subsup, with
    environment added to this process's; returns the CompletedProcess."""
    import subsup

    env = dict(os.environ, **environment)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(subsup.__file__))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
    )


def run_cli_process(args, **environment):
    """Run the CLI in a fresh interpreter; returns the CompletedProcess."""
    return run_python(
        "import sys; from subsup.cli import main; sys.exit(main(sys.argv[1:]))",
        *args,
        **environment,
    )


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

    def test_alpha1_warning_is_printed(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["nonlinearity"]["H"] = {"kind": "power", "p": 1.5}
        main(["check", tmp_scenario(doc)])
        assert capsys.readouterr().out.splitlines()[:2] == [
            "alpha1 growth bounds: PASS",
            "  warning: q = 1.5 is >= 1; the sublinear range 0 < q < 1 is the "
            "usual setting, continuing with the bound q < 5",
        ]

    def test_negative_lower_fails(self, tmp_scenario, capsys):
        doc = base_torus_doc()
        doc["bracket"]["lower"] = "-0.01"
        assert main(["check", tmp_scenario(doc)]) == 1
        out = capsys.readouterr().out
        assert "lower solution check: FAIL (negative entry at vertex 0)" in out
        assert "upper solution check: PASS" in out

    @pytest.mark.parametrize(
        "lower,upper,lines",
        [
            (0.01, 0.0, ["lower exceeds upper at vertex 0", None]),
            (0.0, 0.0, ["identically zero", None]),
            (
                0.01,
                -1.0,
                ["lower exceeds upper at vertex 0", "negative entry at vertex 0"],
            ),
        ],
    )
    def test_upper_end_not_positive_fails_its_check(
        self, lower, upper, lines, tmp_scenario, tmp_path, capsys
    ):
        # alpha1 used to be checked up to t_max = 2 max(upper) <= 0, which
        # exited 2 with "error: t_max must be positive"
        doc = base_torus_doc()
        doc["bracket"] = {"lower": lower, "upper": upper}
        path = tmp_scenario(doc)
        assert main(["check", path]) == 1
        assert main(["solve", path, "--out", str(tmp_path / "run")]) == 1
        captured = capsys.readouterr()
        report = ["alpha1 growth bounds: PASS", "alpha2 sign conditions: PASS"]
        for side, text in zip(("lower", "upper"), lines):
            verdict = "PASS" if text is None else f"FAIL ({text})"
            report.append(f"{side} solution check: {verdict}")
        expected = [*report, *report, "checks failed; not iterating"]
        assert captured.out.splitlines() == expected
        assert captured.err == ""
        assert not (tmp_path / "run").exists()

    def test_alpha1_table_is_checked_between_the_samples(
        self, tmp_scenario, tmp_path, capsys
    ):
        # H(0.001) = 0.05 > 0.001^0.5, but H exceeds t^0.5 only on
        # (0.0004, 0.0025), which 1000 even steps of [-1, 2] would miss;
        # the breakpoint does not
        (tmp_path / "h.csv").write_text("t,value\n0,0\n0.001,0.05\n0.003,0.05\n10,0.05\n")
        doc = base_torus_doc()
        doc["domain"] = {"kind": "icosphere", "subdivisions": 1, "radius": 1.0}
        doc["nonlinearity"]["H"] = {"kind": "table", "path": "h.csv"}
        doc["nonlinearity"]["q"] = 0.5
        assert main(["check", tmp_scenario(doc)]) == 1
        assert (
            "alpha1 growth bounds: FAIL (H(t) <= t^q at t = 0.001, value 0.05, "
            "bound 0.0316228)" in capsys.readouterr().out
        )

    def test_nonpositive_a_checks_the_bracket(self, tmp_scenario, tmp_path, capsys):
        # the defect is L v in edge form plus M a v: it needs no a > 0
        doc = base_torus_doc()
        doc["coefficients"]["a"] = -1.0
        report = tmp_path / "report.json"
        assert main(["check", tmp_scenario(doc), "--json", str(report)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "alpha1 growth bounds: PASS",
            "alpha2 sign conditions: FAIL (a > 0 at vertex 0)",
            "lower solution check: PASS",
            "upper solution check: FAIL (defect -3.906250e-03 of the wrong sign "
            "at vertex 0)",
        ]
        written = json.loads(report.read_text())
        assert written["lower"] == {
            "passed": True, "vertex": None, "defect": None, "unordered": False
        }
        assert written["upper"] == {
            "passed": False, "vertex": 0, "defect": -0.00390625, "unordered": False
        }
        assert written["passed"] is False


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

    @pytest.mark.parametrize(
        "block,key,text,message",
        [
            ("coefficients", "a", "2+", "unexpected end of input (position 2)"),
            ("coefficients", "h", "2*q", "unknown name 'q' (position 2)"),
            (
                "bracket", "lower", "sin",
                "expected '(', found end of input (position 3)",
            ),
        ],
    )
    def test_expression_error_names_its_field(
        self, block, key, text, message, tmp_scenario, capsys
    ):
        doc = base_torus_doc()
        doc[block][key] = text
        assert main(["check", tmp_scenario(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: '{block}.{key}': {message}\n"

    @pytest.mark.parametrize("dims", [[[10**12, 1.0]], [[10**7, 1.0]] * 2])
    def test_oversized_torus(self, dims, tmp_scenario, tmp_path, capsys):
        doc = base_torus_doc()
        doc["domain"]["dims"] = dims
        path = tmp_scenario(doc)
        assert main(["check", path]) == 2
        assert main(["solve", path, "--out", str(tmp_path / "run")]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2
        assert all("vertices exceeds the limit of 655362" in line for line in lines)

    @pytest.mark.parametrize("verb", ["check", "solve"])
    def test_out_of_memory(self, verb, tmp_scenario, tmp_path, monkeypatch, capsys):
        def build_problem(scenario):
            raise MemoryError("Unable to allocate 2.00 GiB for an array")

        monkeypatch.setattr("subsup.cli.build_problem", build_problem)
        args = [verb, tmp_scenario(base_torus_doc())]
        if verb == "solve":
            args += ["--out", str(tmp_path / "run")]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: out of memory: Unable to allocate 2.00 GiB for an array"
        ]

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

    @pytest.mark.parametrize(
        "case,message",
        [
            ("unused_vertex", "error: vertex 4 belongs to no face"),
            ("nan_coordinate", "error: {path}: vertex 2 has a non-finite coordinate"),
            ("no_faces", "error: {path}: no faces"),
        ],
        ids=["unused_vertex", "nan_coordinate", "no_faces"],
    )
    def test_off_mesh_errors_name_the_vertex(self, case, message, tmp_scenario, tmp_path, capsys):
        # a vertex that no face lists used to pass check and get mass 0, so
        # solve divided by a zero Jacobi diagonal and ended in "residual nan"
        from tests.test_geometry import TETRA_FACES, TETRA_VERTICES, write_off

        verts, faces = list(TETRA_VERTICES), TETRA_FACES
        if case == "unused_vertex":
            verts.append((0.0, 0.0, 0.0))
        elif case == "nan_coordinate":
            verts[2] = (-1.0, float("nan"), -1.0)
        else:
            faces = []
        path = write_off(tmp_path / "mesh.off", verts, faces)
        doc = base_torus_doc()
        doc["domain"] = {"kind": "off", "path": "mesh.off"}
        scenario = tmp_scenario(doc)
        for argv in (["check"], ["solve", "--out", str(tmp_path / "run")], ["mesh-info"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main([argv[0], scenario, *argv[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [message.format(path=path)]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("row", ["1", "1,0.2,9"], ids=["short", "extra_cell"])
    def test_table_row_without_two_cells(self, row, tmp_scenario, tmp_path, capsys):
        # a short row used to end in an IndexError traceback, a long one
        # was cut to its first two cells
        (tmp_path / "h.csv").write_text(f"t,value\n0,0\n{row}\n2,0.5\n")
        doc = base_torus_doc()
        doc["nonlinearity"]["H"] = {"kind": "table", "path": "h.csv"}
        doc["nonlinearity"]["q"] = 0.5
        assert main(["check", tmp_scenario(doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: {tmp_path / 'h.csv'}, line 3: expected two numbers "
            f"'t,value', got '{row}'"
        ]

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

    @pytest.mark.parametrize(
        "case,message",
        [
            (
                "nested_parentheses",
                "error: 'coefficients.a': expression nests too deeply (position 0)",
            ),
            (
                "nested_minus",
                "error: 'coefficients.a': expression nests too deeply (position 0)",
            ),
            (
                "nested_arrays",
                "error: scenario is not valid JSON: maximum recursion depth exceeded",
            ),
            (
                "huge_integer",
                "error: scenario is not valid JSON: Exceeds the limit (4300 digits)",
            ),
        ],
    )
    def test_deep_nesting_and_huge_integers(self, case, message, tmp_path, capsys):
        # each used to end in a RecursionError traceback, or an error that
        # did not say the scenario's JSON was at fault
        doc = base_torus_doc()
        if case == "nested_parentheses":
            doc["coefficients"]["a"] = "(" * 3000 + "2" + ")" * 3000
        elif case == "nested_minus":
            doc["coefficients"]["a"] = "-" * 3000 + "2"
        text = json.dumps(doc)
        if case == "nested_arrays":
            text = "[" * 100_000 + "]" * 100_000
        elif case == "huge_integer":
            text = text.replace('"n": 3', '"n": 1' + "0" * 4999)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(message)

    @pytest.mark.parametrize("verb", ["check", "solve"])
    def test_bracket_end_whose_S_overflows(self, verb, tmp_scenario, tmp_path):
        # S(1e300) = f 1e1500 + h 1e150 used to print two numpy overflow
        # warnings and then an error that named no input; a fresh
        # interpreter shows the warnings a numpy call would print
        with open(SHIPPED_SPHERE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["bracket"]["upper"] = 1e300
        args = [verb, tmp_scenario(doc)]
        if verb == "solve":
            args += ["--out", str(tmp_path / "run")]
        proc = run_cli_process(args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: 'bracket.upper' overflows: S(upper) = f F(upper) + h H(upper) "
            "or A upper is non-finite (largest upper entry 1e+300)"
        ]
        assert not (tmp_path / "run").exists()

    def test_right_hand_side_whose_norm_overflows(self, tmp_scenario, tmp_path):
        # all four checks pass and every entry of S(lower) is finite, but
        # its 2-norm is not: the solve's stop rule tol ||S(lower)||_2 was
        # inf and took the bracket ends as the limits after 0 CG iterations
        doc = {
            "domain": {"kind": "icosphere", "subdivisions": 2, "radius": 1.0},
            "n": 3,
            "coefficients": {"a": 1e241, "f": 1.0, "h": 1e200},
            "nonlinearity": {
                "F": {"kind": "power", "p": 5.0},
                "H": {"kind": "power", "p": 0.5},
            },
            "bracket": {"lower": 1e-83, "upper": 1e60},
        }
        out = tmp_path / "run"
        proc = run_cli_process(["solve", tmp_scenario(doc), "--out", str(out)])
        assert proc.returncode == 2
        assert proc.stdout.count("PASS") == 4
        assert proc.stderr.splitlines() == [
            "error: the right-hand side's 2-norm overflows (largest entry "
            "2.56546e+157), so no residual test can be made"
        ]
        assert not out.exists()

    def test_large_finite_bracket_end_fails_its_check(self, tmp_scenario):
        with open(SHIPPED_SPHERE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["bracket"]["upper"] = 1e61
        proc = run_cli_process(["check", tmp_scenario(doc)])
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert "upper solution check: FAIL (defect" in proc.stdout

    def test_alpha1_passes_where_the_power_law_overflows(self, tmp_scenario, tmp_path):
        # t_max = 5e61 lies past 4.48e61, where F = t^5 overflows; the α1
        # check stops at the last finite point, so only the upper defect fails
        with open(SHIPPED_SPHERE, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["bracket"]["upper"] = 2.5e61
        report = tmp_path / "report.json"
        proc = run_cli_process(["check", tmp_scenario(doc), "--json", str(report)])
        assert proc.returncode == 1
        assert proc.stderr == ""  # no RuntimeWarning
        assert proc.stdout.splitlines()[:3] == [
            "alpha1 growth bounds: PASS",
            "alpha2 sign conditions: PASS",
            "lower solution check: PASS",
        ]
        assert "upper solution check: FAIL (defect" in proc.stdout
        written = json.loads(report.read_text())
        assert written["alpha1"] == {"passed": True, "warnings": []}
        assert [written[k]["passed"] for k in ("alpha2", "lower", "upper")] == [
            True, True, False
        ]


    def test_steep_table_checks_without_a_warning(self, tmp_scenario, tmp_path):
        # the segment [0, 1e-300] rising to 1e10 has slope 1e310, which
        # overflows; its peak point is inf and lies past t_max
        with open(SHIPPED_SPHERE, encoding="utf-8") as fh:
            doc = json.load(fh)
        (tmp_path / "steep.csv").write_text("t,value\n0,0\n1e-300,1e10\n1,1e10\n")
        doc["nonlinearity"]["F"] = {"kind": "table", "path": "steep.csv"}
        proc = run_cli_process(["check", tmp_scenario(doc)])
        assert proc.returncode == 1
        assert proc.stderr == ""  # no RuntimeWarning
        assert proc.stdout.splitlines()[0] == (
            "alpha1 growth bounds: FAIL (F(t) <= t^(2*-1) at t = 1e-300, "
            "value 1e+10, bound 0)"
        )


class TestSolve:
    def test_writes_artifacts(self, tmp_scenario, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["solve", tmp_scenario(base_torus_doc()), "--out", str(out)]) == 0
        for name in ("solution.json", "solution.csv", "trace.csv", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"] is True
        assert summary["coincide"] is True
        # the run stopped on a verified pair within the scenario's tol
        assert 0.0 <= summary["enclosure_width"] <= 1e-9
        assert "ordering_violations" not in summary
        assert summary["min_u_star"] > 0.0
        assert summary["bracket_verified"] == [True, True]
        # written only after every check passed: no alpha pass flags
        assert summary["alpha1_warnings"] == []
        assert not {"alpha1_report", "alpha2_report"} & set(summary)
        assert sorted(summary["restarts"]) == ["lower", "upper"]
        assert min(summary["restarts"].values()) > 0
        assert sorted(summary["cg_iterations"]) == ["lower", "upper"]
        # every upper solve starts from the lower side's solution scaled,
        # which on this constant-coefficient torus already solves it
        assert summary["cg_iterations"]["lower"] > 0
        assert summary["cg_iterations"]["upper"] == 0
        assert sorted(summary["refusals"]) == ["lower", "upper"]
        assert "converged" in capsys.readouterr().out

    def test_deterministic_artifacts(self, tmp_scenario, tmp_path):
        spath = tmp_scenario(base_torus_doc())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", spath, "--out", str(a)]) == 0
        assert main(["solve", spath, "--out", str(b)]) == 0
        for name in ("solution.json", "solution.csv", "trace.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert read_masked(a / "summary.json") == read_masked(b / "summary.json")

    def test_fresh_process_writes_the_in_process_bytes(self, tmp_path):
        # a command-line process, whose start-up objects the collector
        # never visits, writes what main writes inside this process
        fresh, inside = tmp_path / "fresh", tmp_path / "inside"
        proc = run_cli_process(["solve", SHIPPED_SPHERE, "--out", str(fresh)])
        assert proc.returncode == 0, proc.stderr
        assert main(["solve", SHIPPED_SPHERE, "--out", str(inside)]) == 0
        for name in ("solution.json", "solution.csv", "trace.csv"):
            assert (fresh / name).read_bytes() == (inside / name).read_bytes(), name
        assert read_masked(fresh / "summary.json") == read_masked(inside / "summary.json")

    def test_artifacts_do_not_depend_on_the_blas_thread_count(
        self, tmp_scenario, tmp_path
    ):
        # the solve's dot products and norms call no BLAS, whose threaded
        # ddot splits a sum by thread count; on icosphere 5 (10,242
        # vertices) OpenBLAS splits it, and the last bits of the limits
        # then moved with OPENBLAS_NUM_THREADS
        with open(SHIPPED_SPHERE) as fh:
            doc = json.load(fh)
        doc["domain"]["subdivisions"] = 5
        spath = tmp_scenario(doc)
        for threads in ("1", "2"):
            out = str(tmp_path / threads)
            proc = run_cli_process(
                ["solve", spath, "--out", out], OPENBLAS_NUM_THREADS=threads
            )
            assert proc.returncode == 0, proc.stderr
        for name in ("solution.json", "solution.csv", "trace.csv"):
            one, two = ((tmp_path / t / name).read_bytes() for t in ("1", "2"))
            assert one == two, name

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
        assert summary["enclosure_width"] is None and summary["coincide"] is False
        assert (out / "solution.csv").exists()

    @pytest.mark.parametrize("path", [SHIPPED_TORUS, SHIPPED_SPHERE], ids=["torus", "sphere"])
    def test_max_steps_at_the_run_length_is_the_default_run(self, path, tmp_path):
        # both shipped scenarios stop after 6 steps; a budget of as many
        # ends the run where it ends anyway and changes none of its bytes
        default, cut = tmp_path / "default", tmp_path / "cut"
        assert main(["solve", path, "--out", str(default)]) == 0
        assert json.loads((default / "summary.json").read_text())["steps"] == 6
        assert main(["solve", path, "--out", str(cut), "--max-steps", "6"]) == 0
        for name in ("solution.json", "solution.csv", "trace.csv"):
            assert (cut / name).read_bytes() == (default / name).read_bytes(), name
        assert read_masked(cut / "summary.json") == read_masked(default / "summary.json")

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
        for label, extra in (("default", []), ("loose", ["--tol", "1e-4"])):
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
        # once, on the input bracket; restart points have their own
        # certificate, so the rule never runs inside the iteration
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
        assert calls["inside"] == []
        restarts = json.loads((out / "summary.json").read_text())["restarts"]
        assert min(restarts.values()) > 0

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
        # first solve used to run to the cap of 10 n iterations.  A shifted
        # solve that fails first is caught, as a refused point; the first
        # plain solve that fails stops the run.
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
        assert errors and all(0 < exc.report.iterations <= 50 for exc in errors)
        assert err == f"error: {errors[-1]}\n"
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
            # 7,686 coordinates and 15,360 face indices: more than CHUNK
            {"kind": "icosphere", "subdivisions": 4},
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


IMPORTS_SCRIPT = """
import sys

from subsup.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

sphere, torus, off, out = sys.argv[1:]
assert main(["check", sphere]) == 0
assert main(["check", torus]) == 0
# a torus is connected by construction and solved by FFT, an icosphere
# by a V-cycle over coarse levels assembled like the mesh itself
assert main(["solve", torus, "--out", out + "-torus"]) == 0
assert main(["solve", sphere, "--out", out + "-sphere"]) == 0
assert scipy_modules() == [], scipy_modules()
assert main(["spectrum", sphere, "--k", "3"]) == 0
# the spectrum of 642 vertices is found by shift-invert Lanczos
assert "scipy.sparse.linalg" in sys.modules
assert main(["mesh-info", sphere]) == 0
assert main(["mesh-info", off]) == 0
assert "scipy.sparse.csgraph" in sys.modules
print("imports ok")
"""


FREEZE_SCRIPT = """
import gc

import subsup
assert gc.get_freeze_count() == 0, gc.get_freeze_count()
import subsup.cli
assert gc.get_freeze_count() > 0
print("freeze ok")
"""


class TestImports:
    def test_scipy_only_where_it_is_used(self, tmp_path, tmp_scenario):
        # a fresh interpreter that imports nothing first: this test
        # process has loaded scipy already
        import subsup

        from tests.test_geometry import write_off

        ico = subsup.build_icosphere(1)
        doc = base_torus_doc()
        doc["domain"] = {
            "kind": "off",
            "path": write_off(tmp_path / "ico1.off", ico.coordinates, ico.faces),
        }
        proc = run_python(
            IMPORTS_SCRIPT,
            SHIPPED_SPHERE, SHIPPED_TORUS, tmp_scenario(doc), str(tmp_path / "out"),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip().endswith("imports ok")
        # mesh-info on the OFF mesh ran the connectivity search
        assert proc.stdout.count("connected: true") == 2
        assert (tmp_path / "out-torus" / "summary.json").exists()
        assert (tmp_path / "out-sphere" / "summary.json").exists()

    def test_only_the_command_line_freezes_the_collector(self):
        # the library leaves the caller's collector alone; the command
        # line moves its start-up objects into the permanent generation
        proc = run_python(FREEZE_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.rstrip() == "freeze ok"
