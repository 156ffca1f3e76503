"""Sealed-store benchmark: the lazy columnar view vs a full rebuild.

Seals a full SSSP capture as columnar (ARSC) slabs and measures the two
costs the lazy sealed view exists to cut, writing
``benchmarks/results/BENCH_store.json``:

* **warm reopen** — time from a sealed directory on disk to a store that
  can answer queries. :func:`rebuild_store` deserializes every slab into
  a full in-memory store; :func:`open_store_view` opens the mmap'd sealed
  view and decodes only slab footers. The gate is a >= 5x speedup.
* **partial decode** — peak memory (tracemalloc) of touching a single
  column of the capture's dominant relation across every layer vs
  rebuilding the store from full layers. The gate is <= 50% — in
  practice the ratio is far lower because untouched column segments stay
  compressed bytes in the mmap.

Query 10 (backward lineage) over the lazy view must equal the reference
evaluator over the rebuilt store byte for byte — the report carries the
digest comparison and ``--check`` fails on any mismatch, so the perf
gates can never pass on diverging answers.

Run standalone (CI smoke / perf tracking)::

    PYTHONPATH=src python benchmarks/bench_store_format.py [--smoke] [--check]

``--smoke`` shrinks the workload so the run finishes in seconds;
``--check`` enforces the reopen and memory gates. Scale with
``REPRO_SCALE``.
"""

import argparse
import json
import os
import sys
import tempfile
import time
import tracemalloc

from repro.bench import format_table, publish, results_dir
from repro.bench.workloads import captured_store, repeats
from repro.core import queries as Q
from repro.obs import ledger as obsledger
from repro.provenance.spill import SpillManager, open_store_view, rebuild_store
from repro.runtime.offline import run_layered_from_spill, run_reference

DATASET = "IN-04"

#: ``--check`` floor: warm reopen of the sealed view vs a full rebuild.
REOPEN_SPEEDUP_FLOOR = 5.0

#: ``--check`` ceiling: single-column peak memory over full-layer peak.
SINGLE_COLUMN_MEMORY_CEILING = 0.5


def _seal(store, directory):
    spill = SpillManager(
        store, directory=directory, compression="zlib", async_writes=False,
    )
    spill.seal_all()
    spill.release_slabs()
    return spill


def _lineage_params(store):
    sigma = store.max_superstep
    alpha = next(x for x, t in store.rows("superstep") if t == sigma)
    return {"alpha": alpha, "sigma": sigma}


def _time_reopen_view(directory, rounds):
    """Directory -> query-ready sealed view (footer decodes only).

    The timer covers the whole warm path — slab validation at
    :meth:`SpillManager.open`, then the mmap'd view — mirroring what a
    long-lived server pays to (re)admit a sealed run."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        view = open_store_view(SpillManager.open(directory))
        view.counts()
        best = min(best, time.perf_counter() - start)
        view.close()
    return best


def _time_reopen_rebuild(directory, rounds):
    """Directory -> query-ready in-memory store (full rebuild)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        store = rebuild_store(SpillManager.open(directory))
        store.counts()
        best = min(best, time.perf_counter() - start)
    return best


def _dominant_relation(spill):
    """The relation with the most sealed payload across layer slabs."""
    totals = {}
    for superstep in spill.sealed_layers():
        slab = spill.open_columnar_slab(superstep)
        for relation in slab.relations():
            totals[relation] = (
                totals.get(relation, 0) + slab.raw_bytes(relation)
            )
    spill.release_slabs()
    return max(totals, key=totals.get)


def _measure_single_column(directory, relation):
    """Peak tracemalloc bytes decoding one column of ``relation`` per layer."""
    spill = SpillManager.open(directory)
    tracemalloc.start()
    decoded = 0
    for superstep in spill.sealed_layers():
        slab = spill.open_columnar_slab(superstep)
        if relation in slab.relations():
            slab.column(relation, 0)
        decoded += slab.decoded_bytes
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    spill.release_slabs()
    return peak, decoded


def _measure_full_layers(directory):
    """Peak tracemalloc bytes rebuilding the store from full layers."""
    spill = SpillManager.open(directory)
    tracemalloc.start()
    store = rebuild_store(spill)
    rows = store.num_rows
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, rows


def build_report():
    store = captured_store("sssp", DATASET)
    params = _lineage_params(store)
    rounds = repeats(5)
    report = {
        "dataset": DATASET,
        "rows": store.num_rows,
        "layers": store.num_layers,
        "params": params,
    }
    with tempfile.TemporaryDirectory() as base:
        directory = os.path.join(base, "store")
        _seal(store, directory)
        report["on_disk_bytes"] = sum(
            os.path.getsize(os.path.join(directory, name))
            for name in os.listdir(directory)
        )

        query = Q.NAMED_QUERIES["query10"]
        view_result = run_layered_from_spill(
            SpillManager.open(directory), query, None, params,
        )
        reference = run_reference(
            rebuild_store(SpillManager.open(directory)), query, None, params,
        )
        digests = {
            "view": obsledger.digest_query_result(view_result),
            "reference": obsledger.digest_query_result(reference),
        }
        report["query10_digests"] = digests
        report["digest_match"] = len(set(digests.values())) == 1
        report["query10_decoded_bytes"] = view_result.stats["decoded_bytes"]

        view_reopen = _time_reopen_view(directory, rounds)
        rebuild_reopen = _time_reopen_rebuild(directory, rounds)
        report["reopen"] = {
            "view_seconds": view_reopen,
            "rebuild_seconds": rebuild_reopen,
            "speedup": rebuild_reopen / view_reopen,
        }

        relation = _dominant_relation(SpillManager.open(directory))
        column_peak, column_decoded = _measure_single_column(
            directory, relation
        )
        full_peak, _ = _measure_full_layers(directory)
        report["memory"] = {
            "probe_relation": relation,
            "single_column_peak_bytes": column_peak,
            "single_column_decoded_bytes": column_decoded,
            "full_layer_peak_bytes": full_peak,
            "ratio": column_peak / full_peak,
        }
    return report


def publish_table(report):
    reopen = report["reopen"]
    memory = report["memory"]
    rows = [
        [
            "warm reopen (ms)",
            f"{reopen['view_seconds'] * 1000:.2f}",
            f"{reopen['rebuild_seconds'] * 1000:.2f}",
            f"{reopen['speedup']:.1f}x (floor {REOPEN_SPEEDUP_FLOOR:.0f}x)",
        ],
        [
            f"peak bytes ({memory['probe_relation']} col 0 vs full layers)",
            f"{memory['single_column_peak_bytes']}",
            f"{memory['full_layer_peak_bytes']}",
            f"{memory['ratio']:.2%} (ceiling "
            f"{SINGLE_COLUMN_MEMORY_CEILING:.0%})",
        ],
        [
            "query10 digest (view vs reference)",
            report["query10_digests"]["view"][:12],
            report["query10_digests"]["reference"][:12],
            "identical" if report["digest_match"] else "DIVERGED",
        ],
    ]
    publish("store_format", format_table(
        "Sealed columnar store: lazy view vs full rebuild",
        ["metric", "view", "rebuild", "gate"],
        rows,
    ))


def check_report(report, check=False):
    assert report["digest_match"], (
        f"query10 over the view diverged from the reference: "
        f"{report['query10_digests']}"
    )
    if not check:
        return
    speedup = report["reopen"]["speedup"]
    assert speedup >= REOPEN_SPEEDUP_FLOOR, (
        f"warm reopen speedup {speedup:.2f}x below the "
        f"{REOPEN_SPEEDUP_FLOOR}x floor"
    )
    ratio = report["memory"]["ratio"]
    assert ratio <= SINGLE_COLUMN_MEMORY_CEILING, (
        f"single-column peak is {ratio:.2%} of the full-layer peak "
        f"(ceiling {SINGLE_COLUMN_MEMORY_CEILING:.0%})"
    )


def write_json(report):
    path = os.path.join(results_dir(), "BENCH_store.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload (CI): shrink the graph")
    parser.add_argument("--check", action="store_true",
                        help="fail unless reopen and memory gates clear")
    args = parser.parse_args(argv)
    if args.smoke and "REPRO_SCALE" not in os.environ:
        # Half scale, not the usual quarter: the reopen ratio shrinks with
        # the workload (fixed per-slab costs dominate both paths on tiny
        # stores), and the 5x gate needs headroom against CI noise.
        os.environ["REPRO_SCALE"] = "0.5"
    report = build_report()
    report["smoke"] = args.smoke
    path = write_json(report)
    publish_table(report)
    check_report(report, check=args.check)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
