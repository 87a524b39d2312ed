"""Print where the time of fresh subsup processes goes: import, main, shutdown.

Each of K processes runs `from subsup.cli import main; sys.exit(main(ARGS))`
from src/.  The spans, medians over the K processes, in milliseconds:

    import    launch to `import subsup.cli` returned (interpreter start,
              site, numpy and subsup)
    main      main(ARGS) called to returned
    shutdown  main returned to the exit that os.wait4 observes

and the median peak resident set size in MB (ru_maxrss from os.wait4).
perfbench's tracer writes its spans when main returns, so it cannot see
the last one.  Run: python tools/process_time.py [-k K] VERB SCENARIO [ARGS...]
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
# The child writes the clock after the import and after main to the
# descriptor given as its first argument.  time.monotonic is one clock
# for every process on the host.
CHILD = """
import os, sys, time
from subsup.cli import main
imported = time.monotonic()
code = main(sys.argv[2:])
returned = time.monotonic()
os.write(int(sys.argv[1]), f"{imported!r} {returned!r}".encode())
sys.exit(code)
"""


def one_process(args, env):
    """One CLI process: (exit code, import, main, shutdown in s, peak RSS in MB)."""
    read_end, write_end = os.pipe()
    launched = time.monotonic()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD, str(write_end), *args],
            env=env, stdout=subprocess.DEVNULL, pass_fds=(write_end,),
        )
    finally:
        os.close(write_end)
    _, status, usage = os.wait4(proc.pid, 0)
    exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with os.fdopen(read_end, "rb") as fh:
        stamps = fh.read().split()
    if len(stamps) != 2:
        raise SystemExit(f"process_time: main did not return (exit {proc.returncode})")
    imported, returned = map(float, stamps)
    spans = imported - launched, returned - imported, exited - returned
    return proc.returncode, *spans, usage.ru_maxrss / 1024.0


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("-k", type=int, default=9, help="processes to run (default 9)")
parser.add_argument("command", nargs=argparse.REMAINDER, help="VERB SCENARIO [ARGS...]")
options = parser.parse_args()
if options.k < 1 or len(options.command) < 2:
    parser.error("need K >= 1, a verb and a scenario")
env = dict(os.environ)
env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
runs = [one_process(options.command, env) for _ in range(options.k)]
print(f"{' '.join(options.command)}: {options.k} processes, "
      f"exit codes {sorted({run[0] for run in runs})}")
for i, name in enumerate(("import", "main", "shutdown"), start=1):
    print(f"{name:10} {1e3 * statistics.median(run[i] for run in runs):8.1f} ms")
print(f"{'peak RSS':10} {statistics.median(run[4] for run in runs):8.2f} MB")
