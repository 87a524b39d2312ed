"""Record the reference fingerprints of both limits for every solve command.

    python3 perfbench/record_reference.py

Runs each workload's solve commands once on DEFAULT_SEED from the
checkout's ``src/``, gates the artifacts (without a reference), and
writes ``perfbench/reference.json``.  The committed file was recorded
from the commit that introduced the benchmark; re-record it only when
the program's answer is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import gate
import run
from workloads import DEFAULT_SEED, WORKLOADS


def main():
    references = {
        "recorded_from": {"git_sha": run.git_output("rev-parse", "HEAD"), "src_sha256": run.src_sha256()}
    }
    root_dir = os.path.join(run.WORK, "reference")
    shutil.rmtree(root_dir, ignore_errors=True)
    for workload in WORKLOADS.values():
        if all(c.verb != "solve" for c in workload.commands):
            continue
        work_dir = os.path.join(root_dir, workload.name)
        os.makedirs(work_dir)
        paths = workload.scenario_paths(run.ROOT, work_dir, DEFAULT_SEED)
        built = run.build_problems(paths)
        runs = run.run_pass(
            workload, paths, os.path.join(work_dir, "pass"), run.child_env(), False, time.perf_counter() + 120
        )
        for r in runs:
            if r.command.verb != "solve":
                continue
            scenario, problem, upper = built[r.command.scenario]
            problems = gate.output_problems("solve", r.proc.exit_code, run.read_text(r.proc.log_path))
            problems += gate.solution_problems(r.out_dir, scenario, problem, upper)
            if problems:
                print(f"{workload.name}/{r.command.scenario}: {'; '.join(problems)}", file=sys.stderr)
                return 1
            lo, up = gate.read_limits(r.out_dir)
            references.setdefault(workload.name, {})[r.command.scenario] = {
                "u_star": gate.fingerprint(lo),
                "u_upper_star": gate.fingerprint(up),
            }
            print(f"recorded {workload.name}/{r.command.scenario}")
    shutil.rmtree(root_dir)
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
