"""Run the benchmark over workloads and seeds and summarise each metric.

    python3 perfbench/sweep.py                        # all workloads, seed 0
    python3 perfbench/sweep.py --seeds 1-10 --out stats.json
    python3 perfbench/sweep.py --workloads torus32_solve --trace 1

Each (seed, workload) is one ``run.py`` process, run one after another.
For every metric the table gives its unit, the number of runs, the
median and quartiles of the per-run values, and the spread (quartile
distance over median) beside the bound from BENCHMARK.json; with one
seed it shows the single value and how many samples its median took.
``error_rate`` is failed over attempted commands across all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
from workloads import WORKLOADS


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarise(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="0", help="e.g. 0 or 1-10 or 1,4,7")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--out", help="write the per-run values and statistics as JSON")
    args = parser.parse_args(argv)
    spec = run.load_spec()
    names = sorted(WORKLOADS) if args.workloads == "all" else args.workloads.split(",")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = {name: [] for name in names}
    for seed in parse_seeds(args.seeds):
        for name in names:
            cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                print(f"{name} seed {seed}: no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record_path = os.path.join(run.WORK, "results", f"{name}-seed{seed}-trace{args.trace}.json")
            with open(record_path, encoding="utf-8") as fh:
                rounds = json.load(fh)["rounds"]
            runs[name].append({"seed": seed, "rounds": rounds, **result})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            ) + f" failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)

    stats = {}
    for name in names:
        rs = runs[name]
        failed = sum(r["failed"] for r in rs)
        attempted = sum(r["attempted"] for r in rs)
        stats[name] = {"error_rate": failed / attempted, "failed": failed, "attempted": attempted, "metrics": {}}
        print(f"\n{name}: {len(rs)} run(s), {'/'.join(str(r['rounds']) for r in rs)} samples per run")
        for m in declared:
            s = summarise([r["metrics"][m["name"]]["value"] for r in rs])
            stats[name]["metrics"][m["name"]] = {"unit": m["unit"], "values": [r["metrics"][m["name"]]["value"] for r in rs], **s}
            bound = f" (bound {m['bound']:g})" if "bound" in m else ""
            print(f"  {m['name']:<38} {s['median']:>12.6g} {m['unit']:<6} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{bound}")
        print(f"  {'error_rate':<38} {failed / attempted:>12.6g} ratio  ({failed}/{attempted} commands)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seconds": seconds, "trace": args.trace, "runs": runs, "stats": stats}, fh, indent=1)
    return 0 if all(s["failed"] == 0 for s in stats.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
