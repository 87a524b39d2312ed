"""Self-test of the harness on the shipped scenarios (about 5 s).

    python3 perfbench/selftest.py

Runs one untraced and one traced pass of ``shipped_cli`` and checks
that the gate passes them and that the traced layer split is populated.
Then it feeds the gate a corrupted artifact, a wrong exit code and a
trace with a missing span, and checks that each is counted as a failed
command.  Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import time

import gate
import run
from workloads import WORKLOADS, Command, Workload


def _check(results, name, ok, detail=""):
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def main():
    if not os.path.isfile(os.path.join(run.SRC, "subsup", "cli.py")):
        print(f"selftest: no subsup source at {run.SRC}", file=sys.stderr)
        return 2
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = run.child_env()
    deadline = time.perf_counter() + 120
    results = []

    workload = WORKLOADS["shipped_cli"]
    paths = workload.scenario_paths(run.ROOT, work, 0)
    built = run.build_problems(paths)
    references = run.load_references(workload, 0)
    plain = run.run_pass(workload, paths, os.path.join(work, "plain"), env, False, deadline)
    traced = run.run_pass(workload, paths, os.path.join(work, "traced"), env, True, deadline)
    attempted, failures = run.evaluate(built, [{"plain": plain, "traced": traced}], references)
    _check(results, "smoke: shipped scenarios pass the gate", attempted == 8 and not failures, str(failures))
    layers = run.layer_metrics([(run.read_trace(r.trace_path), 1) for r in traced])
    _check(
        results,
        "smoke: traced pass records T, S, steps and artifact bytes",
        layers["linear_operator.T_calls"] > 0
        and layers["nonlinearity.S_calls"] > 0
        and layers["iteration.steps"] > 0
        and layers["serialize.bytes"] > 0,
        str(layers),
    )

    # corrupted artifact in a repeated pass: one digit of solution.csv
    solve = plain[3]
    bad_dir = os.path.join(work, "corrupt")
    shutil.copytree(solve.out_dir, bad_dir)
    csv_path = os.path.join(bad_dir, "solution.csv")
    with open(csv_path, encoding="utf-8") as fh:
        text = fh.read()
    cut = text.index("\n1,") + 3
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(text[:cut] + ("1" if text[cut] != "1" else "2") + text[cut + 1 :])
    repeated = plain[:3] + [dataclasses.replace(solve, out_dir=bad_dir)]
    _, failures = run.evaluate(built, [{"plain": plain}, {"plain": repeated}], references)
    _check(results, "corrupted artifact is a failure", list(failures) == ["r1 plain 3-solve-torus_constant"], str(failures))

    # corrupted limit in the first pass: defect and reference checks catch it
    bad_first = os.path.join(work, "corrupt-first")
    shutil.copytree(solve.out_dir, bad_first)
    with open(os.path.join(bad_first, "solution.json"), encoding="utf-8") as fh:
        solution = json.load(fh)
    solution["u_star"][0] *= 1.001
    with open(os.path.join(bad_first, "solution.json"), "w", encoding="utf-8") as fh:
        json.dump(solution, fh)
    scenario, problem, upper = built["torus_constant"]
    problems = gate.solution_problems(bad_first, scenario, problem, upper, references["torus_constant"])
    _check(
        results,
        "corrupted limit fails the defect and reference checks",
        any("final defect" in p for p in problems) and any("reference" in p for p in problems),
        str(problems),
    )

    # wrong exit code: a real check whose upper bracket end is not an upper solution
    doc = WORKLOADS["torus32_solve"].make_document(0.5)
    doc["domain"]["dims"] = [[8, 1.0]] * 3
    bad_path = os.path.join(work, "a_too_small.json")
    with open(bad_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    bad_workload = Workload("bad", (Command("check", "bad"),))
    bad_pass = run.run_pass(bad_workload, {"bad": bad_path}, os.path.join(work, "bad"), env, False, deadline)
    _, failures = run.evaluate({}, [{"plain": bad_pass}], {})
    _check(
        results,
        "wrong exit code is a failure",
        bad_pass[0].proc.exit_code == 1 and "exit code 1" in failures.get("r0 plain 0-check-bad", []),
        str(failures),
    )

    # missing span: drop solve_T from a traced solve, as a moved import would
    trace = run.read_trace(traced[3].trace_path)
    trace["spans"] = [s for s in trace["spans"] if s[0] != "linear_operator.solve_T"]
    missing_path = os.path.join(work, "missing-span.trace.json")
    with open(missing_path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
    edited = traced[:3] + [dataclasses.replace(traced[3], trace_path=missing_path)]
    _, failures = run.evaluate(built, [{"plain": plain, "traced": edited}], references)
    _check(
        results,
        "missing span is a failure",
        failures.get("r0 traced 3-solve-torus_constant") == ["span linear_operator.solve_T recorded no calls"],
        str(failures),
    )

    shutil.rmtree(work)
    print(f"selftest: {sum(results)}/{len(results)} checks hold")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
