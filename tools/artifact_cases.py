"""Print what every CLI command outputs on a fixed list of scenarios, one line each.

Each command runs in a fresh process, as a user runs it: `check --json`,
`solve` (solution.json, solution.csv, trace.csv, summary.json),
`mesh-info --json` and `spectrum --k 4`.  A line gives the scenario,
the command, its exit code and a sha256 over its stdout, its stderr and
each file it wrote.  The wall time in summary.json and the solve time
printed on stdout are masked, as they differ from run to run.  The
output of two versions of subsup differs exactly where a command's
output does, so a change that must keep every output's bytes is checked
by one diff (the tool exits 1 after its lines where a command ended in a
traceback):

    PYTHONPATH=src python tools/artifact_cases.py > after.txt
    PYTHONPATH=../parent/src python tools/artifact_cases.py > before.txt
    diff before.txt after.txt

The scenarios: both shipped ones; the shipped torus's coefficients on
icosphere 3, a 1-D torus, a 2-D torus and an OFF tetrahedron; an F
table; failing alpha1 (F = t^6), alpha2 (f < 0), lower end, upper end
and an unordered bracket; H = t^1.5, whose q >= 1 warns; and two F
tables whose neighbouring t or values differ by more than the largest
float.
"""

import copy
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import subsup

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
CLI = "import sys; from subsup.cli import main; sys.exit(main(sys.argv[1:]))"
COMMANDS = {
    "check": ["check", "{scenario}", "--json", "check.json"],
    "solve": ["solve", "{scenario}", "--out", "out"],
    "mesh-info": ["mesh-info", "{scenario}", "--json", "domain.json"],
    "spectrum": ["spectrum", "{scenario}", "--k", "4"],
}
MASKS = (
    (re.compile(rb'"wall_time": [^,\n]+'), b'"wall_time": 0'),
    (re.compile(rb"steps \(\d+\.\d+ s\)"), b"steps (- s)"),
)
TETRAHEDRON = "OFF\n4 4 0\n1 1 1\n1 -1 -1\n-1 1 -1\n-1 -1 1\n3 0 1 2\n3 0 3 1\n3 0 2 3\n3 1 3 2\n"
F_TABLE = "t,value\n0,0\n0.5,0\n1,0.03\n2,1\n"


def shipped(name):
    with open(SCENARIOS / name, encoding="utf-8") as fh:
        return json.load(fh)


def scenarios():
    """{name: (scenario document, {file name: text} written beside it)}."""
    torus = shipped("torus_constant.json")

    def variant(files=None, **changes):
        doc = copy.deepcopy(torus)
        for path, value in changes.items():
            *keys, last = path.split("__")
            node = doc
            for key in keys:
                node = node[key]
            node[last] = value
        return doc, files or {}

    table = {"kind": "table", "path": "F.csv"}
    return {
        "torus_constant": (torus, {}),
        "sphere_variable": (shipped("sphere_variable.json"), {}),
        "icosphere3": variant(domain={"kind": "icosphere", "subdivisions": 3}),
        "torus1d": variant(domain={"kind": "flat_torus", "dims": [[64, 1.0]]}),
        "torus2d": variant(
            domain={"kind": "flat_torus", "dims": [[16, 6.283185307179586]] * 2}
        ),
        "off_tetrahedron": variant(
            {"mesh.off": TETRAHEDRON}, domain={"kind": "off", "path": "mesh.off"}
        ),
        "F_table": variant({"F.csv": F_TABLE}, nonlinearity__F=table),
        "alpha1_fails": variant(nonlinearity__F={"kind": "power", "p": 6.0}),
        "alpha2_fails": variant(coefficients__f=-0.5),
        "lower_fails": variant(bracket__lower=0.5),
        "upper_fails": variant(bracket__upper=0.05),
        "unordered": variant(bracket__lower=5.0),
        "q_at_least_1": variant(nonlinearity__H={"kind": "power", "p": 1.5}),
        "wide_values": variant(
            {"F.csv": "t,value\n0,-1e308\n1,1e308\n"}, nonlinearity__F=table
        ),
        "wide_ts": variant(
            {"F.csv": "t,value\n-1e308,0\n1e308,1\n"}, nonlinearity__F=table
        ),
    }


def run(root, name, command):
    """(exit code, sha256, whether it crashed) of one command on the
    scenario in root/name, run with the subsup this process imports."""
    cwd = root / "runs" / f"{name}-{command}"
    cwd.mkdir(parents=True)
    scenario = str(root / name / "scenario.json")
    args = [a.format(scenario=scenario) for a in COMMANDS[command]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(subsup.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *args], cwd=cwd, env=env, capture_output=True
    )
    digest = hashlib.sha256()
    parts = [("stdout", proc.stdout), ("stderr", proc.stderr)]
    for path in sorted(p for p in cwd.rglob("*") if p.is_file()):
        parts.append((path.relative_to(cwd).as_posix(), path.read_bytes()))
    for label, data in parts:
        data = data.replace(str(root).encode(), b"<root>")
        for pattern, mask in MASKS:
            data = pattern.sub(mask, data)
        digest.update(f"{label} {len(data)}\n".encode())
        digest.update(data)
    return proc.returncode, digest.hexdigest(), b"Traceback" in proc.stderr


def main():
    crashed = []
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        for name, (doc, files) in scenarios().items():
            os.makedirs(root / name)
            (root / name / "scenario.json").write_text(json.dumps(doc), encoding="utf-8")
            for file_name, text in files.items():
                (root / name / file_name).write_text(text, encoding="utf-8")
            for command in COMMANDS:
                code, digest, crash = run(root, name, command)
                print(f"{name} {command}: exit {code} sha256 {digest}", flush=True)
                if crash:
                    crashed.append(f"{name} {command}")
    if crashed:
        sys.exit(f"traceback from: {', '.join(crashed)}")


if __name__ == "__main__":
    main()
