"""The benchmark's workloads and the scenario files they feed the CLI.

Each workload is a fixed list of ``subsup`` commands.  The seeded
workloads write their scenario files from ``--seed``; the program only
reads those files.  The seed picks the constant ``a`` on the torus and
``c`` in ``a = c + 0.5*z`` on the sphere.  With f = h = 0.5 and the
bracket [0.01, 1], alpha2 and both bracket defect signs hold for
1 < a < 5 everywhere; the range drawn from, [1.95, 2.05], sits well
inside that and is narrow because the work depends on ``a`` (CG
iterations fall by about 2% per +0.1), so runs on different seeds stay
comparable.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0
COEFFICIENT_RANGE = (1.95, 2.05)

# Scenario constants shared by every generated file; they match the
# shipped scenarios so that only the size and the seeded coefficient vary.
_COMMON = {
    "n": 3,
    "nonlinearity": {"F": {"kind": "power", "p": 5.0}, "H": {"kind": "power", "p": 0.5}},
    "bracket": {"lower": 0.01, "upper": 1.0},
    "solver": {"tol": 1e-9, "max_steps": 500},
}

# Spans a traced command must record at least once; zero calls there
# mean a wrapper no longer sits where the program looks the function up.
CHECK_SPANS = (
    "cli.main",
    "cli.run_checks",
    "scenario.load_scenario",
    "scenario.build_problem",
    "scenario.build_domain",
    "nonlinearity.check_alpha1",
    "nonlinearity.check_alpha2",
    "nonlinearity.apply_S",
    "iteration.defect",
)
SOLVE_SPANS = CHECK_SPANS + (
    "iteration.make_bracket",
    "iteration.iterate_monotone",
    "geometry.mesh_quality",
    "geometry.is_connected",
    "linear_operator.solve_T",
    "serialize.write_json",
    "serialize.write_csv",
)


@dataclass(frozen=True)
class Command:
    verb: str  # "check" or "solve"
    scenario: str  # key into the workload's scenario paths

    @property
    def required_spans(self):
        return SOLVE_SPANS if self.verb == "solve" else CHECK_SPANS


def _scenario(domain, a):
    return {"domain": domain, "coefficients": {"a": a, "f": 0.5, "h": 0.5}, **_COMMON}


def _sphere(subdivisions):
    return lambda c: _scenario(
        {"kind": "icosphere", "subdivisions": subdivisions, "radius": 1.0},
        f"{c!r}+0.5*z",
    )


def _torus(cells):
    return lambda a: _scenario({"kind": "flat_torus", "dims": [[cells, 1.0]] * 3}, a)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    # coefficient -> scenario document; None runs the shipped scenario files
    make_document: object = None

    @property
    def scenario_keys(self):
        return sorted({c.scenario for c in self.commands})

    def scenario_paths(self, root, work_dir, seed):
        """Map scenario key -> path, writing the seeded file first."""
        if self.make_document is None:
            return {k: os.path.join(root, "scenarios", k + ".json") for k in self.scenario_keys}
        (key,) = self.scenario_keys
        coefficient = random.Random(f"{self.name}:{seed}").uniform(*COEFFICIENT_RANGE)
        path = os.path.join(work_dir, key + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.make_document(coefficient), fh, indent=2)
            fh.write("\n")
        return {key: path}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "shipped_cli",
            (
                Command("check", "sphere_variable"),
                Command("solve", "sphere_variable"),
                Command("check", "torus_constant"),
                Command("solve", "torus_constant"),
            ),
        ),
        Workload("sphere_ico5_solve", (Command("solve", "ico5"),), _sphere(5)),
        Workload("torus32_solve", (Command("solve", "torus32"),), _torus(32)),
        Workload("sphere_ico6_check", (Command("check", "ico6"),), _sphere(6)),
    )
}
