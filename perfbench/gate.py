"""The correctness gate: decides which ``subsup`` commands failed.

A command fails when any of these does not hold:

- it exits with code 0, and for ``check`` every line of its output
  reads PASS (``solve`` prints the same four check lines first);
- for ``solve``: summary.json says converged and both bracket ends
  verified, and ``u_star <= u_upper_star`` holds within the program's
  ORDERING_SLACK (scaled as the program scales it);
- the final defect of both limits, re-evaluated here with
  ``subsup.defect``, is at most DEFECT_FACTOR * tol * max|M a u|;
- where a reference fingerprint was recorded for the scenario (the
  shipped scenarios, and the seeded ones on DEFAULT_SEED), both limits
  match it within REFERENCE_FACTOR * tol;
- its artifacts are byte-identical to those of the same command in the
  run's first pass, with only ``wall_time`` masked in summary.json.

Every helper returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

ARTIFACTS = ("solution.json", "solution.csv", "trace.csv", "summary.json")
CHECK_LINES = 4
# Largest ratio measured when the benchmark was introduced: 6.9 (torus32, u_star).
DEFECT_FACTOR = 100.0
# Limits stop within about tol of the fixed point; 100 * tol leaves room
# for a different but valid linear solver or iteration order.
REFERENCE_FACTOR = 100.0
FINGERPRINT_POINTS = 65
_WALL_TIME = re.compile(rb'("wall_time": )[^,\n}]*')


def output_problems(verb, exit_code, stdout):
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    lines = [line for line in stdout.splitlines() if line.strip()]
    checks = lines if verb == "check" else lines[:CHECK_LINES]
    if len(checks) != CHECK_LINES or not all(line.endswith(": PASS") for line in checks):
        problems.append("check lines do not all read PASS")
    if verb == "solve" and not any(line.startswith("converged in ") for line in lines):
        problems.append("no 'converged in' line")
    return problems


def artifact_digest(out_dir):
    """sha256 over the artifacts with wall_time masked; None if one is missing."""
    digest = hashlib.sha256()
    for name in ARTIFACTS:
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            return None
        with open(path, "rb") as fh:
            data = fh.read()
        if name == "summary.json":
            data = _WALL_TIME.sub(rb"\1<masked>", data)
        digest.update(name.encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def fingerprint(values):
    """Sampled values plus extremes and mean, enough to pin a limit vector."""
    import numpy as np

    values = np.asarray(values, dtype=float)
    index = np.linspace(0, values.size - 1, FINGERPRINT_POINTS).round().astype(int)
    return {
        "n": int(values.size),
        "index": [int(i) for i in index],
        "values": [float(v) for v in values[index]],
        "min": float(values.min()),
        "max": float(values.max()),
        "mean": float(values.mean()),
    }


def fingerprint_problems(label, values, ref, atol):
    import numpy as np

    values = np.asarray(values, dtype=float)
    if values.size != ref["n"]:
        return [f"{label}: {values.size} values, reference has {ref['n']}"]
    got = np.concatenate(
        [values[ref["index"]], [values.min(), values.max(), values.mean()]]
    )
    want = np.asarray(ref["values"] + [ref["min"], ref["max"], ref["mean"]])
    worst = float(np.abs(got - want).max())
    if worst > atol:
        return [f"{label}: differs from reference by {worst:.3e} > {atol:.3e}"]
    return []


def read_limits(out_dir):
    with open(os.path.join(out_dir, "solution.json"), encoding="utf-8") as fh:
        solution = json.load(fh)
    return solution["u_star"], solution["u_upper_star"]


def solution_problems(out_dir, scenario, problem, upper, reference=None):
    """Convergence, ordering, defect and reference checks on one solve's artifacts."""
    import numpy as np
    import subsup
    from subsup.iteration import ORDERING_SLACK

    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        limits = dict(zip(("u_star", "u_upper_star"), read_limits(out_dir)))
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable artifacts: {exc}"]
    problems = []
    if summary.get("converged") is not True:
        problems.append("summary says not converged")
    if summary.get("bracket_verified") != [True, True]:
        problems.append("bracket not verified")
    lo = np.asarray(limits["u_star"], dtype=float)
    up = np.asarray(limits["u_upper_star"], dtype=float)
    n = problem.domain.vertex_count
    if lo.shape != (n,) or up.shape != (n,):
        return problems + [f"limits have shapes {lo.shape}, {up.shape}; expected ({n},)"]
    slack = ORDERING_SLACK * max(float(np.abs(upper.values).max()), 1.0)
    gap = float((lo - up).max())
    if gap > slack:
        problems.append(f"u_star exceeds u_upper_star by {gap:.3e} > slack {slack:.3e}")
    for label, u in limits.items():
        u = np.asarray(u, dtype=float)
        d = float(np.abs(subsup.defect(problem, u).values).max())
        scale = float(np.abs(problem.domain.mass * problem.a.values * u).max())
        bound = DEFECT_FACTOR * scenario.tol * (scale + np.finfo(float).eps)
        if d > bound:
            problems.append(f"{label} final defect {d:.3e} > bound {bound:.3e}")
        if reference is not None:
            problems += fingerprint_problems(
                label, u, reference[label], REFERENCE_FACTOR * scenario.tol
            )
    return problems


def span_problems(trace, required):
    """Required spans with zero calls; a trace that is missing or unreadable."""
    if trace is None:
        return ["no trace written"]
    seen = {span[0] for span in trace["spans"]}
    return [f"span {name} recorded no calls" for name in required if name not in seen]
