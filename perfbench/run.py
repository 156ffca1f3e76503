"""Run one perfbench workload in a fresh, isolated Python process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload monitor --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The workload itself lives in ``perfbench/workloads.py``. This launcher
starts it in a new process with a pinned ``PYTHONHASHSEED`` (so hash order,
and with it every named count, repeats across runs of one seed), with
``PYTHONPATH`` pointing at this checkout's ``src`` only, and with
``TMPDIR`` inside the checkout so nothing is written elsewhere. The
worker's standard output, whose last line is the JSON result, passes
through unchanged; its exit code becomes this command's exit code.
``--workload all`` runs every workload of ``BENCHMARK.json`` in turn and
exits non-zero if any of them did.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The pinned hash seed every workload process runs under.
HASH_SEED = "0"

#: Hard stop for one workload process; the run must end within 180 s.
TIMEOUT_SECONDS = 170

#: Scratch space for stores, ready files and server traces (git-ignored).
SCRATCH_DIR = os.path.join(ROOT, ".perfbench")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    source = os.path.join(ROOT, "src", "repro", "__init__.py")
    if not os.path.isfile(source):
        print(f"perfbench: {source} not found; run from the root of a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    if "--workload" in argv and argv[argv.index("--workload") + 1:][:1] == [
            "all"]:
        # Every workload of BENCHMARK.json in turn, each in its own process.
        at = argv.index("--workload") + 1
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
        return max(run_workload([*argv[:at], name, *argv[at + 1:]])
                   for name in names)
    return run_workload(argv)


def run_workload(argv) -> int:
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "PYTHONHASHSEED": HASH_SEED,
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "TMPDIR": SCRATCH_DIR,
    })
    env.pop("REPRO_SCALE", None)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), *argv]
    # A new session, so a timeout can stop the worker's own children (the
    # query server, parallel-backend workers) along with it.
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload exceeded {TIMEOUT_SECONDS}s; stopped",
              file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        return 130
    finally:
        # The worker stops its own children; this only catches leftovers
        # of a worker that was killed or crashed.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main())
