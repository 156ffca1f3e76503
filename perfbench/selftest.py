"""Tiny-size self-test of the perfbench benchmark itself.

Runs every workload at the smallest graph size for about a second, traced
and untraced, and checks three things:

1. every metric named in ``BENCHMARK.json`` is emitted, with its unit;
2. a deliberately corrupted digest, a malformed served response and a
   load client that dies each count as a failure, make the result line
   say ``"correct": false`` and the command exit non-zero;
3. each traced breakdown sums to its wall time through ``other_s``, and
   ``other_s`` is not negative (the parts do not overlap).

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, SRC)
# The lineage workload starts ``python -m repro serve`` as a child.
os.environ["PYTHONPATH"] = SRC
os.environ["TMPDIR"] = os.path.join(ROOT, ".perfbench")

_spec = importlib.util.spec_from_file_location(
    "perfbench_workloads", os.path.join(HERE, "workloads.py"))
W = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = W  # dataclasses resolve the module by name
_spec.loader.exec_module(W)

SEED = 3
SECONDS = 1.0


def shrink() -> None:
    """The smallest inputs the workloads accept."""
    for name in W.VERTICES:
        W.VERTICES[name] = 64
    W.SETUP_REPEATS = W.LINEAGE_SETUP_REPEATS = 1
    W.TRACED_REQUESTS = 3
    W.LINEAGE_RATE_RPS = 4.0


def check_metrics(bench: dict, workload: str, trace: bool,
                  line: dict) -> list:
    listed = bench["per_layer"] if trace else bench["end_to_end"]
    problems = []
    metrics = line["metrics"]
    for metric in listed:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{workload}: {metric['name']} not emitted")
        elif got.get("unit") != metric["unit"]:
            problems.append(f"{workload}: {metric['name']} has unit "
                            f"{got.get('unit')!r}, expected "
                            f"{metric['unit']!r}")
        elif not isinstance(got.get("value"), (int, float)):
            problems.append(f"{workload}: {metric['name']} is not a number")
    extra = set(metrics) - {m["name"] for m in listed}
    if extra:
        problems.append(f"{workload}: unlisted metrics {sorted(extra)}")
    if not trace:
        zero = [m["name"] for m in listed if not metrics[m["name"]]["value"]]
        if zero:
            problems.append(f"{workload}: end-to-end metrics read 0: {zero}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        problems.append(f"{workload}: clean run reported {line}")
    return problems


def check_breakdown(workload: str, report: dict) -> list:
    layers = {name: m["value"] for name, m in report["per_layer"].items()}
    parts = W.BREAKDOWN[workload]
    wall = layers["breakdown.wall_s"]
    total = sum(layers[p] for p in parts) + layers["breakdown.other_s"]
    problems = []
    if wall <= 0 or abs(total - wall) > 1e-9 * max(1.0, wall):
        problems.append(f"{workload}: parts + other_s = {total} != wall "
                        f"{wall}")
    if layers["breakdown.other_s"] < 0:
        problems.append(f"{workload}: other_s is negative "
                        f"({layers['breakdown.other_s']}); parts overlap")
    return problems


def corrupted_runs() -> list:
    """Corrupt one expected digest per kind of check, return a malformed
    served body, and kill a load client; each run must fail."""
    problems = []

    def corrupt_job_digest(original):
        def patched(self, jobs, bare):
            self.digests = {name: "0" * 64 for name in jobs}
            return original(self, jobs, bare)
        return patched

    def corrupt_reference(original):
        def patched(self, schedule):
            refs = original(self, schedule)
            first = schedule[0]
            key = (first.query, first.alpha, first.sigma)
            refs[key].digest = refs[key].page = "0" * 64
            return refs
        return patched

    def malformed_body(original):
        def patched(conn, run_id, request):
            status, _doc = original(conn, run_id, request)
            return status, {}  # a 200 without its result or page
        return patched

    def client_dies(original):
        def patched(*args):
            raise RuntimeError("client thread dies")
        return patched

    cases = [
        ("monitor", W.MonitorWorkload, "check_jobs", corrupt_job_digest),
        ("lineage", W.LineageWorkload, "references", corrupt_reference),
        ("lineage", W, "send", malformed_body),
        ("lineage", W, "response_problem", client_dies),
    ]
    for workload, owner, attr, patch in cases:
        original = getattr(owner, attr)
        setattr(owner, attr, patch(original))
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = W.main(["--workload", workload, "--seed", str(SEED),
                               "--seconds", str(SECONDS), "--trace", "0"])
        finally:
            setattr(owner, attr, original)
        line = json.loads(out.getvalue().strip().splitlines()[-1])
        if code == 0 or line["correct"] or line["failed"] < 1:
            problems.append(f"{workload}: {patch.__name__} not counted "
                            f"as a failure (exit {code}, {line})")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    shrink()
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (False, True):
            report = W.run(workload, SEED, SECONDS, trace)
            problems += check_metrics(bench, workload, trace,
                                      W.result_line(report))
            if trace:
                problems += check_breakdown(workload, report)
            print(f"{workload} trace={int(trace)}: "
                  f"{report['attempted']} operations checked", flush=True)
    problems += corrupted_runs()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
