"""Steadiness evidence for the perfbench workloads.

Runs ``perfbench/run.py`` repeatedly, one fresh process per run, and
writes what the benchmark's bounds are judged by::

    python3 perfbench/steadiness.py --runs 10 --sets 2         # all workloads
    python3 perfbench/steadiness.py --runs 5 --workloads lineage
    python3 perfbench/steadiness.py --same-seed 2              # counts repeat?

With ``--runs N`` each workload runs N times, each with another seed,
and the whole set is made ``--sets`` times (default 2) with the same
seeds. For every end-to-end metric and set the report gives the values,
their median, and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next
to a third of the metric's bound from ``BENCHMARK.json``; the same for
the raw (unscaled) wall times; and how far each later set's median
moved from the first set's, against the bound.

With ``--same-seed N`` each workload runs N traced runs with one seed,
and the report lists every per-layer count that did not repeat exactly.

Results go to ``perfbench/results/`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")


def load_benchmark() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


#: The report line with the raw wall-time medians, as workloads.py prints it.
RAW_PREFIX = "raw wall-time medians: "


def run_once(workload: str, seed: int, seconds: int,
             trace: int) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    result["raw"] = next((json.loads(line[len(RAW_PREFIX):])
                          for line in lines if line.startswith(RAW_PREFIX)),
                         {})
    return result


def spread(values: List[float]) -> Dict[str, Any]:
    q1, mid, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None}


def one_set(bench: Dict[str, Any], workload: str,
            seeds: List[int]) -> Dict[str, Any]:
    """Runs of one workload, one per seed: each end-to-end metric's spread
    against a third of its bound, and the raw (unscaled) times' spread."""
    results = []
    for seed in seeds:
        result = run_once(workload, seed, bench["run_seconds"], 0)
        print(f"{workload} seed {seed}: "
              + ", ".join(f"{k}={v['value']:.4g}"
                          for k, v in result["metrics"].items())
              + ", raw " + ", ".join(f"{k}={v:.4g}"
                                     for k, v in result["raw"].items())
              + f" ({result['elapsed_s']:.1f}s)", flush=True)
        results.append(result)
    metrics = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        stats = spread([r["metrics"][name]["value"] for r in results])
        stats["bound"] = metric["bound"]
        stats["steady"] = (stats["iqr_share"] is not None
                           and stats["iqr_share"] < metric["bound"] / 3)
        metrics[name] = stats
    raw_names = sorted(set.intersection(*(set(r["raw"]) for r in results)))
    return {
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "elapsed_s": [r["elapsed_s"] for r in results],
        "metrics": metrics,
        "raw": {name: spread([r["raw"][name] for r in results])
                for name in raw_names},
    }


def drift(first: Dict[str, Any], later: Dict[str, Any],
          bound: float) -> Dict[str, Any]:
    """How far a later set's median moved from the first set's."""
    change = later["median"] / first["median"] - 1.0
    return {"medians": [first["median"], later["median"]],
            "change": change, "within_bound": abs(change) <= bound}


def seeds_report(bench: Dict[str, Any], workloads: List[str], runs: int,
                 first_seed: int, sets: int) -> Dict[str, Any]:
    """``sets`` sets of runs with the same seeds, one set of every workload
    after the other, and each later set's median drift from the first."""
    seeds = [first_seed + i for i in range(runs)]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    done: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    for _ in range(sets):
        for workload in workloads:
            done[workload].append(one_set(bench, workload, seeds))
    report: Dict[str, Any] = {"run_seconds": bench["run_seconds"],
                              "runs": runs, "seeds": seeds, "sets": sets,
                              "workloads": {}}
    for workload, results in done.items():
        first = results[0]
        report["workloads"][workload] = {
            "sets": results,
            "drift": {name: [drift(first["metrics"][name],
                                   later["metrics"][name], bound)
                             for later in results[1:]]
                      for name, bound in bounds.items()},
            "raw_drift": {name: [drift(first["raw"][name],
                                       later["raw"][name], bounds[name])
                                 for later in results[1:]]
                          for name in first["raw"]},
        }
    return report


def same_seed_report(bench: Dict[str, Any], workloads: List[str],
                     runs: int, seed: int) -> Dict[str, Any]:
    """Traced runs with one seed: every per-layer count must repeat."""
    seconds = bench["run_seconds"]
    counts = [m["name"] for m in bench["per_layer"]
              if m["unit"] in ("count", "B")]
    report: Dict[str, Any] = {"seed": seed, "runs": runs, "workloads": {}}
    for workload in workloads:
        results = [run_once(workload, seed, seconds, 1) for _ in range(runs)]
        values = {name: [r["metrics"][name]["value"] for r in results]
                  for name in counts}
        report["workloads"][workload] = {
            "counts": {name: v[0] for name, v in values.items()},
            "not_repeated": {name: v for name, v in values.items()
                             if len(set(v)) > 1},
        }
        print(f"{workload}: {len(counts)} counts, not repeated: "
              f"{report['workloads'][workload]['not_repeated']}", flush=True)
    return report


def print_summary(report: Dict[str, Any]) -> None:
    for workload, entry in report["workloads"].items():
        for i, one in enumerate(entry["sets"]):
            for name, stats in one["metrics"].items():
                raw = one["raw"].get(name)
                print(f"{workload:<9} set {i + 1} {name:<12} median "
                      f"{stats['median']:.4g}  IQR/median "
                      f"{stats['iqr_share']:.4f}  bound/3 "
                      f"{stats['bound'] / 3:.4f}"
                      + ("" if stats["steady"] else "  NOT STEADY")
                      + (f"  (raw: median {raw['median']:.4g}, IQR/median "
                         f"{raw['iqr_share']:.4f})" if raw else ""))
        for name, drifts in entry["drift"].items():
            for d in drifts:
                print(f"{workload:<9} {name:<12} median drift "
                      f"{d['change']:+.4f}"
                      + ("" if d["within_bound"] else "  OUTSIDE BOUND"))


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, default=2,
                        help="sets of runs with the same seeds")
    parser.add_argument("--same-seed", type=int, metavar="N",
                        help="N traced runs with one seed instead")
    parser.add_argument("--out", help="output file name in results/")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.same_seed:
        report = same_seed_report(bench, workloads, args.same_seed,
                                  args.first_seed)
        out = args.out or "counts_repeat.json"
    else:
        report = seeds_report(bench, workloads, args.runs, args.first_seed,
                              args.sets)
        out = args.out or "steadiness.json"
        print_summary(report)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, out), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
