"""Benchmark of the ``subsup`` CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs the program from
``src/`` and writes only under ``.perfbench_work/``.  The load is a
closed loop: one client, and each command runs in a fresh interpreter
only after the previous one has exited.  Children see ``PYTHONPATH=src``
and a single BLAS thread (BLAS_THREADS).

A run repeats rounds until the next one would end past ``--seconds``
(at least MIN_ROUNDS).  With ``--trace 0`` a round is one untraced pass
through the workload's commands, one run of calibrate.py and, every
SETUP_EVERY rounds, one set-up probe per scenario (fresh interpreter to
built problem).  It reports the medians of ``peak_rss_mb`` and of the
``wall_s`` and ``setup_s`` samples, each time scaled to a reference
machine speed by CALIBRATION_REFERENCE_S over the same round's
calibration time; the raw samples go to the record.  With ``--trace 1`` a round is an
untraced pass and a traced one (see tracer.py); it reports the
per-layer metrics of BENCHMARK.json, medians over traced passes, and
the tracing overhead.  Every command goes through the correctness gate
in gate.py.  The last line of standard output is the result object;
the full record, with provenance and every sample, goes to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import PackageNotFoundError, version

import gate
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
TRACER = os.path.join(HERE, "tracer.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")

MIN_ROUNDS = 5
# A run must end within 180 s: a command still running this long after
# --seconds is killed (and fails), and no further round starts.
GRACE_S = 60
# Set-up probes run in every SETUP_EVERY-th round, leaving more of the
# run's time for passes, whose wall_s has the tighter bound.
SETUP_EVERY = 2
# What the ``subsup`` console script runs.
CLI = "import sys; from subsup.cli import main; sys.exit(main())"
SETUP = "import sys, subsup; subsup.build_problem(subsup.load_scenario(sys.argv[1]))"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# One BLAS thread, well under the CPU count: on a 2-CPU machine two
# threads made the ico5 solve ~25% slower and its run medians spread ~12%
# instead of ~3%, because threaded dot products on 10^4-vector CG wait on
# each other whenever either CPU is delayed.
BLAS_THREADS = 1
NPROC = len(os.sched_getaffinity(0))
# Times are reported in seconds of a reference machine on which
# calibrate.py takes this long.  The host this benchmark was written on
# changed speed by up to 1.85x over minutes (other tenants); the CLI and
# the calibration slowed alike, so scaling each round by its calibration
# time cancels most of that drift.
CALIBRATION_REFERENCE_S = 0.5


@dataclass
class Proc:
    wall_s: float
    exit_code: int
    rss_mb: float
    log_path: str


@dataclass
class CommandRun:
    command: object  # workloads.Command
    proc: Proc
    out_dir: str | None
    trace_path: str | None


def child_env():
    env = dict(os.environ, PYTHONPATH=SRC)
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


def launch(argv, env, log_path, deadline):
    """Run argv to exit, killing it at ``deadline`` (a perf_counter time).

    Wall time spans launch to exit; rusage is the child's, from wait4.
    """
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
        )
        killer = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0, log_path)


def run_pass(workload, paths, pass_dir, env, traced, deadline):
    os.makedirs(pass_dir)
    runs = []
    for i, cmd in enumerate(workload.commands):
        tag = os.path.join(pass_dir, f"{i}-{cmd.verb}-{cmd.scenario}")
        cli_args = [cmd.verb, paths[cmd.scenario]]
        out_dir = tag if cmd.verb == "solve" else None
        if out_dir:
            cli_args += ["--out", out_dir]
        trace_path = tag + ".trace.json" if traced else None
        if traced:
            argv = [sys.executable, TRACER, trace_path, *cli_args]
        else:
            argv = [sys.executable, "-c", CLI, *cli_args]
        runs.append(CommandRun(cmd, launch(argv, env, tag + ".log", deadline), out_dir, trace_path))
    return runs


def measure(workload, paths, run_dir, seconds, trace):
    """Closed-loop rounds until the next round would end past ``seconds``."""
    env = child_env()
    deadline = time.perf_counter() + seconds + GRACE_S
    warm = launch([sys.executable, "-c", "import subsup.cli"], env, os.path.join(run_dir, "warm.log"), deadline)
    if warm.exit_code != 0:
        raise SystemExit(f"perfbench: cannot import subsup from {SRC}")
    rounds = []
    t0 = time.perf_counter()
    while True:
        k = len(rounds)
        log = os.path.join(run_dir, f"r{k}-")
        rnd = {"plain": run_pass(workload, paths, log + "plain", env, False, deadline)}
        if trace:
            rnd["traced"] = run_pass(workload, paths, log + "traced", env, True, deadline)
        else:
            rnd["calibrate"] = launch([sys.executable, CALIBRATE], env, log + "calibrate.log", deadline)
            if k % SETUP_EVERY == 0:
                rnd["setup"] = [
                    launch([sys.executable, "-c", SETUP, path], env, log + f"setup-{key}.log", deadline)
                    for key, path in sorted(paths.items())
                ]
        rounds.append(rnd)
        now = time.perf_counter()
        projected = (now - t0) * (len(rounds) + 1) / len(rounds)
        if (len(rounds) >= MIN_ROUNDS and projected > seconds) or now > deadline:
            return rounds


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def read_trace(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def build_problems(paths):
    """scenario key -> (scenario, problem, upper) from the checkout's subsup."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import subsup

    out = {}
    for key, path in sorted(paths.items()):
        scenario = subsup.load_scenario(path)
        _, problem, _, upper = subsup.build_problem(scenario)
        out[key] = (scenario, problem, upper)
    return out


def evaluate(built, rounds, references):
    """Gate every command; returns (attempted, {label: [problem, ...]})."""
    failures = {}
    attempted = 0
    first_digest = {}
    first_counts = {}

    def record(label, problems):
        nonlocal attempted
        attempted += 1
        if problems:
            failures[label] = problems

    for k, rnd in enumerate(rounds):
        probes = [("setup", p) for p in rnd.get("setup", [])]
        probes += [("calibrate", rnd["calibrate"])] if "calibrate" in rnd else []
        for j, (kind, proc) in enumerate(probes):
            record(f"r{k} {kind} {j}", [f"exit code {proc.exit_code}"] if proc.exit_code else [])
        for kind in ("plain", "traced"):
            for i, cr in enumerate(rnd.get(kind, [])):
                cmd = cr.command
                problems = gate.output_problems(cmd.verb, cr.proc.exit_code, read_text(cr.proc.log_path))
                if cmd.verb == "solve":
                    digest = gate.artifact_digest(cr.out_dir)
                    first = first_digest.setdefault(i, digest)
                    if digest is None:
                        problems.append("artifacts missing")
                    elif digest != first:
                        problems.append("artifacts differ from the first pass")
                    elif k == 0 and kind == "plain":
                        scenario, problem, upper = built[cmd.scenario]
                        problems += gate.solution_problems(
                            cr.out_dir, scenario, problem, upper, references.get(cmd.scenario)
                        )
                if kind == "traced":
                    trace = read_trace(cr.trace_path)
                    problems += gate.span_problems(trace, cmd.required_spans)
                    if trace is not None and first_counts.setdefault(i, trace["counts"]) != trace["counts"]:
                        problems.append("counts differ from the first traced pass")
                record(f"r{k} {kind} {i}-{cmd.verb}-{cmd.scenario}", problems)
    return attempted, failures


def layer_metrics(traces):
    """Per-layer metrics of one traced pass, summed over its commands.

    ``traces`` holds (trace, spmv_bytes) per command, where spmv_bytes is
    what one CG iteration streams: A in CSR form, p read and A p written.
    """
    m = dict.fromkeys(
        (
            "cli.import_s", "cli.self_s", "scenario.load_s", "scenario.build_problem_self_s",
            "geometry.build_domain_s", "geometry.mesh_quality_s", "geometry.mesh_quality_calls",
            "geometry.is_connected_s", "nonlinearity.alpha1_s", "nonlinearity.alpha2_s",
            "nonlinearity.S_calls", "nonlinearity.S_s", "linear_operator.T_calls",
            "linear_operator.T_s", "linear_operator.cg_iterations",
            "linear_operator.T_max_rel_residual", "linear_operator.spmv_bytes_computed",
            "iteration.defect_s", "iteration.make_bracket_s", "iteration.iterate_s",
            "iteration.iterate_self_s", "iteration.steps", "serialize.write_s", "serialize.bytes",
        ),
        0,
    )
    for trace, spmv_bytes in traces:
        spans = trace["spans"]
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]

        def total(name):
            return sum(d for s, d in zip(spans, dur) if s[0] == name)

        def calls(name):
            return sum(1 for s in spans if s[0] == name)

        def self_time(name):
            return sum(d - c for s, d, c in zip(spans, dur, child) if s[0] == name)

        counts = trace["counts"]
        m["cli.import_s"] += trace["import_s"]
        m["cli.self_s"] += self_time("cli.main") + self_time("cli.run_checks")
        m["scenario.load_s"] += total("scenario.load_scenario")
        m["scenario.build_problem_self_s"] += self_time("scenario.build_problem")
        m["geometry.build_domain_s"] += total("scenario.build_domain")
        m["geometry.mesh_quality_s"] += total("geometry.mesh_quality")
        m["geometry.mesh_quality_calls"] += calls("geometry.mesh_quality")
        m["geometry.is_connected_s"] += total("geometry.is_connected")
        m["nonlinearity.alpha1_s"] += total("nonlinearity.check_alpha1")
        m["nonlinearity.alpha2_s"] += total("nonlinearity.check_alpha2")
        m["nonlinearity.S_calls"] += calls("nonlinearity.apply_S")
        m["nonlinearity.S_s"] += total("nonlinearity.apply_S")
        m["linear_operator.T_calls"] += calls("linear_operator.solve_T")
        m["linear_operator.T_s"] += total("linear_operator.solve_T")
        m["linear_operator.cg_iterations"] += counts["cg_iterations"]
        m["linear_operator.T_max_rel_residual"] = max(
            m["linear_operator.T_max_rel_residual"], counts["T_max_rel_residual"]
        )
        m["linear_operator.spmv_bytes_computed"] += counts["cg_iterations"] * spmv_bytes
        # bracket checks on the check path; make_bracket's defects count under it
        m["iteration.defect_s"] += sum(
            d
            for s, d in zip(spans, dur)
            if s[0] == "iteration.defect" and s[3] >= 0 and spans[s[3]][0] == "cli.run_checks"
        )
        m["iteration.make_bracket_s"] += total("iteration.make_bracket")
        m["iteration.iterate_s"] += total("iteration.iterate_monotone")
        m["iteration.iterate_self_s"] += self_time("iteration.iterate_monotone")
        m["iteration.steps"] += counts["steps"]
        m["serialize.write_s"] += total("serialize.write_json") + total("serialize.write_csv")
        m["serialize.bytes"] += counts["artifact_bytes"]
    return m


def median_metrics(rounds, trace, sizes):
    samples = {"wall_s": [sum(r.proc.wall_s for r in rnd["plain"]) for rnd in rounds]}
    if not trace:
        samples["setup_s"] = [sum(p.wall_s for p in rnd["setup"]) for rnd in rounds if "setup" in rnd]
        samples["peak_rss_mb"] = [max(r.proc.rss_mb for r in rnd["plain"]) for rnd in rounds]
        samples["calibrate_s"] = [rnd["calibrate"].wall_s for rnd in rounds]
        # each round is scaled by its own calibration, which tracks the
        # machine's speed over seconds better than one figure per run
        speed = [CALIBRATION_REFERENCE_S / rnd["calibrate"].wall_s for rnd in rounds]
        setup_speed = [v for v, rnd in zip(speed, rounds) if "setup" in rnd]
        return {
            "wall_s": statistics.median(w * v for w, v in zip(samples["wall_s"], speed)),
            "setup_s": statistics.median(t * v for t, v in zip(samples["setup_s"], setup_speed)),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        }, samples
    per_pass = []
    for rnd in rounds:
        traces = [(read_trace(r.trace_path), sizes[r.command.scenario]["spmv_bytes"]) for r in rnd["traced"]]
        per_pass.append(layer_metrics([(t, b) for t, b in traces if t is not None]))
    for name in per_pass[0]:
        samples[name] = [p[name] for p in per_pass]
    samples["traced_wall_s"] = [sum(r.proc.wall_s for r in rnd["traced"]) for rnd in rounds]
    metrics = {name: statistics.median(samples[name]) for name in per_pass[0]}
    metrics["tracing.overhead_s"] = statistics.median(samples["traced_wall_s"]) - statistics.median(
        samples["wall_s"]
    )
    return metrics, samples


def git_output(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_sha256():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cache_bytes():
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            level = read_text(os.path.join(base, entry, "level")).strip()
            kind = read_text(os.path.join(base, entry, "type")).strip()
            size = read_text(os.path.join(base, entry, "size")).strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
            sizes[f"L{level}"] = int(size.rstrip("KM")) * scale
    return sizes


def _version(package):
    try:
        return version(package)
    except PackageNotFoundError:
        return None


def problem_sizes(built):
    sizes = {}
    for key, (scenario, problem, _) in built.items():
        A = problem.linear.system_matrix
        csr_bytes = int(A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)
        sizes[key] = {
            "n": int(A.shape[0]),
            "nnz": int(A.nnz),
            "csr_bytes": csr_bytes,
            "spmv_bytes": csr_bytes + 2 * A.dtype.itemsize * int(A.shape[0]),
            "a": scenario.a,
        }
    return sizes


def provenance(sizes):
    sha = git_output("rev-parse", "HEAD")
    status = git_output("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "cache_bytes": _cache_bytes(),
        "problems": sizes,
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_references(workload, seed):
    """Reference fingerprints that apply to this workload and seed."""
    if workload.make_document is not None and seed != DEFAULT_SEED:
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload.name, {})


def run(workload_name, seed, seconds, trace):
    """One benchmark run; returns the full record (result object under 'result')."""
    workload = WORKLOADS[workload_name]
    spec = load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    run_dir = os.path.join(WORK, workload.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    paths = workload.scenario_paths(ROOT, run_dir, seed)
    rounds = measure(workload, paths, run_dir, seconds, trace)

    built = build_problems(paths)
    attempted, failures = evaluate(built, rounds, load_references(workload, seed))
    sizes = problem_sizes(built)
    metrics, samples = median_metrics(rounds, trace, sizes)
    if set(metrics) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(metrics)} do not match BENCHMARK.json")
    failed = len(failures)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "rounds": len(rounds),
        "samples": samples,
        "failures": failures,
        "provenance": provenance(sizes),
        "result": result,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(WORK, "results", f"{workload.name}-seed{seed}-trace{int(trace)}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if failed == 0:
        shutil.rmtree(run_dir)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "subsup", "cli.py")):
        print(f"perfbench: no subsup source at {SRC}", file=sys.stderr)
        return 2

    seconds = args.seconds if args.seconds is not None else load_spec()["run_seconds"]
    record = run(args.workload, args.seed, seconds, bool(args.trace))
    result = record["result"]
    for label, problems in record["failures"].items():
        print(f"FAILED {label}: {'; '.join(problems)}")
    for name, metric in result["metrics"].items():
        n = len(record["samples"].get(name, ())) or record["rounds"]
        print(f"{name} = {metric['value']:.6g} {metric['unit']} (median of {n})")
    raw = {k: statistics.median(v) for k, v in record["samples"].items() if k in ("wall_s", "setup_s", "calibrate_s")}
    print("raw medians " + ", ".join(f"{k} = {v:.6g} s" for k, v in raw.items()))
    print(f"error_rate = {result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:g}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
