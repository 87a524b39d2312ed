"""Run one ``subsup`` command with the program's functions wrapped in spans.

    python3 perfbench/tracer.py TRACE.json check scenario.json
    python3 perfbench/tracer.py TRACE.json solve scenario.json --out DIR

The process does what the ``subsup`` console script does (import
``subsup.cli`` and call ``main``), after replacing each function in
TARGETS at every ``subsup`` module attribute that holds it, which is
where its callers look it up.  Spans and counters stay in memory and are
written to TRACE.json when ``main`` returns:

    {"import_s": float, "exit_code": int,
     "spans": [[name, start, end, parent_index], ...],
     "counts": {...}}

The exit code is main()'s; 3 means a target no longer exists.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# span name -> (defining module, attribute)
TARGETS = {
    "cli.main": ("subsup.cli", "main"),
    "cli.run_checks": ("subsup.cli", "_run_checks"),
    "scenario.load_scenario": ("subsup.scenario", "load_scenario"),
    "scenario.build_problem": ("subsup.scenario", "build_problem"),
    "scenario.build_domain": ("subsup.scenario", "build_domain"),
    "geometry.mesh_quality": ("subsup.geometry", "mesh_quality"),
    "nonlinearity.check_alpha1": ("subsup.nonlinearity", "check_alpha1"),
    "nonlinearity.check_alpha2": ("subsup.nonlinearity", "check_alpha2"),
    "nonlinearity.apply_S": ("subsup.nonlinearity", "apply_S"),
    "linear_operator.solve_T": ("subsup.linear_operator", "solve_T"),
    "iteration.defect": ("subsup.iteration", "defect"),
    "iteration.make_bracket": ("subsup.iteration", "make_bracket"),
    "iteration.iterate_monotone": ("subsup.iteration", "iterate_monotone"),
    "serialize.write_json": ("subsup.serialize", "write_json"),
    "serialize.write_csv": ("subsup.serialize", "write_csv"),
}
# span name -> (defining module, class, method); wrapped on the class
METHOD_TARGETS = {
    "geometry.is_connected": ("subsup.geometry", "DiscreteDomain", "is_connected"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {
            "cg_iterations": 0,
            "T_max_rel_residual": 0.0,
            "steps": 0,
            "artifact_bytes": 0,
        }

    def wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def to_json_dict(self, import_s, exit_code):
        return {
            "import_s": import_s,
            "exit_code": exit_code,
            "spans": self.spans,
            "counts": self.counts,
        }


def _after_solve_T(tracer, args, kwargs, result):
    import numpy as np

    psi = args[1] if len(args) > 1 else kwargs["psi"]
    _, report = result
    tracer.counts["cg_iterations"] += int(report.iterations)
    bnorm = float(np.linalg.norm(psi.values))
    if bnorm > 0.0:
        rel = float(report.final_residual_norm) / bnorm
        tracer.counts["T_max_rel_residual"] = max(tracer.counts["T_max_rel_residual"], rel)


def _after_iterate(tracer, args, kwargs, result):
    _, trace = result
    tracer.counts["steps"] += len(trace.lower_steps) + len(trace.upper_steps)


def _after_write(tracer, args, kwargs, result):
    from subsup.serialize import format_float

    path = args[0] if args else kwargs["path"]
    size = os.path.getsize(path)
    obj = args[1] if len(args) > 1 else kwargs.get("obj")
    if isinstance(obj, dict) and "wall_time" in obj:
        # the one value outside the determinism contract; its digits vary
        size -= len(format_float(obj["wall_time"]))
    tracer.counts["artifact_bytes"] += size


HOOKS = {
    "linear_operator.solve_T": _after_solve_T,
    "iteration.iterate_monotone": _after_iterate,
    "serialize.write_json": _after_write,
    "serialize.write_csv": _after_write,
}


def install(tracer):
    """Wrap every target at each subsup module attribute bound to it."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "subsup"]
    for name, (module_name, attr) in TARGETS.items():
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = tracer.wrap(name, original, HOOKS.get(name))
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapper)
    for name, (module_name, cls_name, attr) in METHOD_TARGETS.items():
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), HOOKS.get(name)))


def main(argv):
    trace_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import subsup.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    try:
        install(tracer)
    except (AttributeError, ImportError) as exc:
        print(f"tracer: cannot wrap target: {exc}", file=sys.stderr)
        return 3
    exit_code = None
    try:
        exit_code = subsup.cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json_dict(import_s, exit_code), fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
