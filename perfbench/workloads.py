"""The perfbench workloads: the paper's three costs, measured end to end.

One process runs one workload for one seed (``perfbench/run.py`` starts it
fresh, with a pinned ``PYTHONHASHSEED``). The workloads, what they
exercise and what they bypass are described in ``perfbench/README.md``.

With ``--trace 0`` the run is untraced and prints the end-to-end metrics.
With ``--trace 1`` it first measures the same operations untraced, then
repeats one operation under a :class:`repro.obs.Tracer` and prints the
per-layer metrics; their critical-path parts plus ``breakdown.other_s``
add up to the traced wall time ``breakdown.wall_s``.

Every operation's output is checked. The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import http.client
import json
import multiprocessing
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.engine.config import EngineConfig
from repro.graph.datasets import WEB_DATASETS
from repro.graph.generators import with_random_weights
from repro.obs import ledger
from repro.parallel import make_engine
from repro.pql import serialize
from repro.provenance.spill import SpillManager, open_store_view, rebuild_store
from repro.runtime.offline import run_layered_from_spill, run_reference
from repro.runtime.online import run_online

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("monitor", "capture", "lineage", "parallel")

DATASET = "IN-04"

#: Vertices of each workload's IN-04 stand-in. Pinned here, never read from
#: REPRO_SCALE, so every run of a workload does the same amount of work.
#: Sizes keep one operation around a second or less, so a run holds
#: enough operations for a steady median.
VERTICES = {"monitor": 200, "parallel": 200, "capture": 150, "lineage": 100}

#: ``monitor`` and ``parallel`` run their jobs on this many IN-04
#: instances per seed: SSSP's convergence, and with it its work, varies
#: about twofold between graphs, and a set over three instances varies
#: less from seed to seed.
INSTANCES = 3
INSTANCE_SEED_STRIDE = 1_000_003

PAGERANK_SUPERSTEPS = 20
SSSP_SOURCE = 0
PARALLEL_WORKERS = 2

#: Set-up is repeated this many times per run and its median reported
#: (the lineage set-up, which captures a store, fewer times).
SETUP_REPEATS = 5
LINEAGE_SETUP_REPEATS = 3

#: Bare runs are short, so each round samples them several times and
#: bare_s rests on more samples: the set of bare analytics per monitored
#: set, and bare PageRank (milliseconds on the capture graph) per capture.
BARE_REPEATS = 3
CAPTURE_BARE_REPEATS = 5

#: The lineage load: open loop at one fixed offered rate, half or less of
#: what one served store sustains (evaluation on one store is serialized,
#: so capacity is about 1 / mean service time: ~5 req/s on a 2-vCPU Xeon
#: guest).
LINEAGE_RATE_RPS = 2.5
LINEAGE_CONNECTIONS = 2
#: A response slower than this, measured from when it was due, is not
#: counted as goodput.
LINEAGE_LATENCY_LIMIT_S = 2.0
#: Distinct (alpha, sigma) targets; requests pick them Zipf-skewed, so
#: popular targets hit the server's prepared-plan cache and rare ones miss.
TARGET_POOL = 8
TARGET_SKEW = 1.2
#: Target supersteps. A trace's cost grows with the layers it crosses; a
#: narrow band keeps every seed's mix about equally expensive.
SIGMA_BAND = (8, 13)
PAGE_LIMIT = 50
REQUEST_KINDS = ("query10", "query9", "query10_page", "lineage_get")
#: Direct evaluations per distinct (query, target): the references the
#: served responses are checked against, and the samples behind bare_s.
REFERENCE_REPEATS = 3
#: Requests driven against the traced server in a ``--trace 1`` run.
TRACED_REQUESTS = 12
SERVER_START_TIMEOUT_S = 60.0

#: The speed calibration (see SpeedProbe): a fixed pure-Python loop of
#: tuple hashing and dict probes, and what it takes at the reference speed.
CALIBRATION_ITEMS = 20_000
CALIBRATION_ROUNDS = 25
CALIBRATION_NOMINAL_S = 0.025
#: How often the lineage client calibrates while the server works.
CALIBRATION_PERIOD_S = 0.5

#: Starts the report line that carries the raw (unscaled) wall-time
#: medians as JSON, which ``steadiness.py`` records next to the scaled ones.
RAW_PREFIX = "raw wall-time medians: "

END_TO_END = {
    "setup_s": "s", "job_s": "s", "bare_s": "s", "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit. Every workload reports every one; a layer a
#: workload bypasses reads 0, which is the prediction for that workload.
PER_LAYER = {
    "graph.gen_s": "s",
    "engine.compute_self_s": "s",
    "engine.barrier_s": "s",
    "engine.vertex_executions": "count",
    "engine.messages": "count",
    "online.query_eval_s": "s",
    "online.capture_s": "s",
    "online.derivations": "count",
    "online.transient_rows": "count",
    "online.prune_hit_ratio": "ratio",
    "pql.index_probes": "count",
    "pql.index_scans": "count",
    "pql.probe_ratio": "ratio",
    "spill.seal_s": "s",
    "spill.writer_s": "s",
    "store.rows": "count",
    "store.bytes": "B",
    "columnar.open_s": "s",
    "columnar.decoded_bytes": "B",
    "columnar.peak_slab_bytes": "B",
    "vectorized.batched_scans": "count",
    "vectorized.fallback_scans": "count",
    "vectorized.batch_ratio": "ratio",
    "vectorized.kernel_selection_s": "s",
    "vectorized.kernel_join_s": "s",
    "vectorized.kernel_head_s": "s",
    "serve.request_ms": "ms",
    "serve.eval_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.overhead_s": "s",
    "serve.plan_cache_hit_ratio": "ratio",
    "serve.response_bytes": "B",
    "lineage.generator_late_ms": "ms",
    "lineage.generator_late_s": "s",
    "parallel.network_bytes": "B",
    "parallel.cross_worker_messages": "count",
    "parallel.transport_s": "s",
    "parallel.transport_wait_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "breakdown.wall_s": "s",
    "breakdown.other_s": "s",
}

#: The critical-path parts of each workload's traced operation, in the
#: order they are printed; ``breakdown.other_s`` is the rest of the wall.
BREAKDOWN = {
    "monitor": ("engine.compute_self_s", "engine.barrier_s",
                "online.query_eval_s", "online.capture_s"),
    "capture": ("engine.compute_self_s", "engine.barrier_s",
                "online.query_eval_s", "online.capture_s", "spill.seal_s"),
    "parallel": ("engine.compute_self_s", "engine.barrier_s",
                 "online.query_eval_s", "online.capture_s",
                 "parallel.transport_s"),
    "lineage": ("lineage.generator_late_s", "serve.overhead_s",
                "vectorized.kernel_selection_s", "vectorized.kernel_join_s",
                "vectorized.kernel_head_s"),
}


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------
class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(reason)
        return ok

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def timed(fn: Callable[[], Any]) -> Tuple[float, Any]:
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


_CALIBRATION_KEYS = [(i % 509, i >> 3) for i in range(CALIBRATION_ITEMS)]
_CALIBRATION_TABLE = dict.fromkeys(_CALIBRATION_KEYS, 0)


def calibration_seconds() -> float:
    """Wall time of one pass of the fixed calibration loop: tuple hashing
    and dict probes over tables built at import. It allocates nothing, so
    neither the garbage collector nor the workload's heap, only the
    host's speed, moves it."""
    table = _CALIBRATION_TABLE
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        for key in _CALIBRATION_KEYS:
            table[key]
    return time.perf_counter() - start


def _calibration_worker(conn: Any) -> None:
    while conn.recv():
        conn.send(calibration_seconds())


class ConcurrentCalibration:
    """The calibration loop run at the same time in ``processes`` child
    processes; the slowest one is the measurement.

    An operation on the multiprocess backend keeps every core busy, so it
    slows when another tenant takes any one of them, which a loop on a
    single core does not see. The children are forked before the workload
    builds its inputs, so they stay small. Each child's first pass is
    slow (it copies the forked pages the loop touches), so one pass is made
    and dropped here."""

    def __init__(self, processes: int) -> None:
        self._conns = []
        self._procs = []
        for i in range(processes):
            parent, child = multiprocessing.Pipe()
            proc = multiprocessing.Process(
                target=_calibration_worker, args=(child,),
                name=f"perfbench-calibration-{i}", daemon=True)
            proc.start()
            self._conns.append(parent)
            self._procs.append(proc)
        self()

    def __call__(self) -> float:
        for conn in self._conns:
            conn.send(True)
        return max(conn.recv() for conn in self._conns)

    def close(self) -> None:
        for conn in self._conns:
            conn.send(False)
        for proc in self._procs:
            proc.join()


class SpeedProbe:
    """Scales wall times to the reference interpreter speed.

    On a shared host the CPU's speed drifts: on a 2-vCPU KVM guest the
    same monitored job set took 1.0 s and 1.7 s a few seconds apart, in
    runs of slow and fast periods. A calibration loop timed right before
    and right after an operation slows by the same factor, so
    ``wall * CALIBRATION_NOMINAL_S / calibration`` cancels the drift. The
    loop is the benchmark's own code, so a change to the program moves the
    scaled time exactly as it moves the wall time.
    """

    def __init__(self, calibrate: Callable[[], float] = calibration_seconds
                 ) -> None:
        self._calibrate = calibrate
        self._last = calibrate()

    def timed(self, fn: Callable[[], Any]) -> Tuple[float, float, Any]:
        """``(factor, wall seconds, value)`` of ``fn()``; the scaled time
        is ``factor * wall``."""
        wall, value = timed(fn)
        now = self._calibrate()
        factor = 2 * CALIBRATION_NOMINAL_S / (self._last + now)
        self._last = now
        return factor, wall, value


class Measured:
    """Tally plus scaled and raw samples of one run's end-to-end times."""

    def __init__(self, calibrate: Callable[[], float] = calibration_seconds
                 ) -> None:
        self.tally = Tally()
        self.speed = SpeedProbe(calibrate)
        #: Set-up is serial work, so it is scaled by the one-core loop.
        self.setup_speed = (self.speed if calibrate is calibration_seconds
                            else SpeedProbe())
        self.scaled: Dict[str, List[float]] = {
            "setup_s": [], "job_s": [], "bare_s": []}
        self.raw: Dict[str, List[float]] = {
            "setup_s": [], "job_s": [], "bare_s": []}
        #: Scaled and raw seconds of one-off set-up steps (server start,
        #: warm-up) added to the median of the repeated set-up.
        self.setup_once = (0.0, 0.0)

    def record(self, name: str, factor: float, *walls: float) -> None:
        for wall in walls:
            self.raw[name].append(wall)
            self.scaled[name].append(wall * factor)

    def timed(self, name: str, fn: Callable[[], Any]) -> Any:
        factor, wall, value = self.speed.timed(fn)
        self.record(name, factor, wall)
        return value

    def timed_parts(self, name: str, run: Callable[[Call], Any]) -> Any:
        """One sample of ``run(call)``: each part ``run`` passes to
        ``call`` is timed and scaled by the calibrations around that
        part, so the scale tracks speed changes within the sample."""
        totals = [0.0, 0.0]

        def call(fn: Callable[[], Any]) -> Any:
            factor, wall, value = self.speed.timed(fn)
            totals[0] += factor * wall
            totals[1] += wall
            return value

        value = run(call)
        self.scaled[name].append(totals[0])
        self.raw[name].append(totals[1])
        return value

    def repeated_setup(self, fn: Callable[[], Any],
                       repeats: Optional[int] = None) -> Any:
        """Run a set-up ``repeats`` (default ``SETUP_REPEATS``) times and
        return the last result; every repeat builds the same inputs."""
        value = None
        for _ in range(repeats or SETUP_REPEATS):
            value = None  # free the previous repeat's inputs first
            gc.collect()
            factor, wall, value = self.setup_speed.timed(fn)
            self.record("setup_s", factor, wall)
        return value

    def medians(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for name in self.scaled:
            out[name] = median(self.scaled[name])
            out["raw_" + name] = median(self.raw[name])
            out[name + "_samples"] = len(self.scaled[name])
        out["setup_s"] += self.setup_once[0]
        out["raw_setup_s"] += self.setup_once[1]
        return out

    def traced_overhead(self, factor: float, wall: float) -> float:
        """Traced wall (scaled) against the untraced median, minus one."""
        return factor * wall / median(self.scaled["job_s"]) - 1.0

    def measure(self, seconds: float) -> None:
        """Repeat :meth:`one_round` for ``seconds`` (at least 3 rounds
        unless one fails)."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or (
                len(self.scaled["job_s"]) < 3 and not self.tally.failed):
            self.one_round()

    def cross_check(self) -> None:
        """Checks that need the whole run; none by default."""

    def setup_layers(self) -> Dict[str, float]:
        """Per-layer numbers of the set-up."""
        return {"graph.gen_s": median(self.raw["setup_s"])}

    def extra(self) -> Dict[str, Any]:
        """Reported, ungated numbers of the run."""
        return {}

    def close(self) -> None:
        """Stop what the workload started."""


def digest_json(value: Any) -> str:
    return hashlib.sha256(
        serialize.canonical_json(value).encode("utf-8")).hexdigest()


def result_digest(relations: Dict[str, Any]) -> str:
    """Digest of a query result's rows, from ``result_to_dict`` form: the
    same bytes whether the result came over HTTP or from a direct call."""
    return digest_json({rel: body["rows"] for rel, body in relations.items()})


def page_digest(rows: List[Any], total_rows: int) -> str:
    return digest_json({"rows": rows, "total_rows": total_rows})


def job_digest(result: Any) -> str:
    """Vertex values plus query result of one online run."""
    return digest_json([ledger.digest_values(result.values),
                        ledger.digest_query_result(result.query)])


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child
    (the query server, or a parallel-backend worker), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def percentile_with_tail(samples: List[float]) -> Tuple[Optional[int], float]:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond
    it, and its value; ``(None, 0.0)`` when there are too few samples."""
    ordered = sorted(samples)
    for pct in (99, 95, 90, 75, 50):
        index = int(len(ordered) * pct / 100)
        if len(ordered) - 1 - index >= 10:
            return pct, ordered[index]
    return None, 0.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Graphs:
    plain: Any
    weighted: Any


def make_graphs(seed: int, vertices: int) -> Graphs:
    """The synthetic IN-04 web graph for ``seed``, unweighted (PageRank)
    and with uniform 0-1 weights (SSSP), as the paper's setup has them."""
    spec = dataclasses.replace(WEB_DATASETS[DATASET], seed=seed)
    plain = spec.generate(vertices / spec.paper_vertices)
    # What spec.generate_weighted builds, without generating twice.
    return Graphs(plain, with_random_weights(plain, 0.0, 1.0, seed=seed))


def instance_seeds(seed: int) -> List[int]:
    """Graph seeds of the ``monitor``/``parallel`` instances; the first is
    the workload seed itself."""
    return [seed + i * INSTANCE_SEED_STRIDE for i in range(INSTANCES)]


# ----------------------------------------------------------------------
# monitor / parallel: online monitoring (Figure 8)
# ----------------------------------------------------------------------
Call = Callable[[Callable[[], Any]], Any]


def call_directly(fn: Callable[[], Any]) -> Any:
    return fn()


def monitored_jobs(instances: List[Graphs], config: EngineConfig,
                   call: Call = call_directly) -> Dict[str, Any]:
    """PageRank with Query 4 and SSSP with Query 6, evaluated online, on
    every graph instance; ``call`` runs (and may time) each job."""
    jobs = {}
    for i, graphs in enumerate(instances):
        jobs[f"pagerank+query4@{i}"] = call(lambda: run_online(
            graphs.plain, PageRank(num_supersteps=PAGERANK_SUPERSTEPS),
            Q.PAGERANK_CHECK_QUERY, config=config))
        jobs[f"sssp+query6@{i}"] = call(lambda: run_online(
            graphs.weighted, SSSP(source=SSSP_SOURCE),
            Q.SSSP_WCC_STABILITY_QUERY, config=config))
    return jobs


def bare_run(graph: Any, analytic: Any, config: EngineConfig) -> Any:
    engine = make_engine(graph, config=config)
    try:
        return engine.run(analytic.make_program())
    finally:
        close = getattr(engine, "close", None)
        if close is not None:
            close()


def bare_jobs(instances: List[Graphs],
              config: EngineConfig) -> Dict[str, Any]:
    """The same analytics as :func:`monitored_jobs`, without a query."""
    jobs = {}
    for i, graphs in enumerate(instances):
        jobs[f"pagerank+query4@{i}"] = bare_run(
            graphs.plain, PageRank(num_supersteps=PAGERANK_SUPERSTEPS),
            config)
        jobs[f"sssp+query6@{i}"] = bare_run(
            graphs.weighted, SSSP(source=SSSP_SOURCE), config)
    return jobs


class MonitorWorkload(Measured):
    """Monitored job sets and bare analytics, serial or on the 2-worker
    multiprocess backend (``parallel``)."""

    def __init__(self, name: str, seed: int) -> None:
        self.calibration = (ConcurrentCalibration(PARALLEL_WORKERS)
                            if name == "parallel" else None)
        super().__init__(self.calibration or calibration_seconds)
        self.name = name
        self.seed = seed
        backend = "parallel" if name == "parallel" else "serial"
        self.config = EngineConfig(backend=backend,
                                   num_workers=PARALLEL_WORKERS)
        self.digests: Dict[str, str] = {}
        self.supersteps: Dict[str, int] = {}

    def setup(self) -> None:
        self.graphs = self.repeated_setup(lambda: [
            make_graphs(seed, VERTICES[self.name])
            for seed in instance_seeds(self.seed)])

    def check_jobs(self, jobs: Dict[str, Any],
                   bares: List[Dict[str, Any]]) -> None:
        for name, result in jobs.items():
            digest = job_digest(result)
            first = self.digests.setdefault(name, digest)
            self.tally.check(digest == first,
                             f"{name}: result differs from this run's first")
            self.supersteps[name] = result.analytic.num_supersteps
            values = ledger.digest_values(result.values)
            for bare in bares:
                self.tally.check(
                    ledger.digest_values(bare[name].values) == values,
                    f"{name}: monitored values differ from the bare run")

    def one_round(self) -> None:
        gc.collect()
        try:
            jobs = self.timed_parts("job_s", lambda call: monitored_jobs(
                self.graphs, self.config, call))
            bares = [self.timed("bare_s", lambda: bare_jobs(
                self.graphs, self.config)) for _ in range(BARE_REPEATS)]
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            self.tally.fail(f"job raised {exc!r}")
            return
        self.check_jobs(jobs, bares)

    def cross_check(self) -> None:
        """``parallel`` results must equal the serial backend's."""
        if self.name != "parallel":
            return
        serial = monitored_jobs(self.graphs, EngineConfig())
        for name, result in serial.items():
            self.tally.check(
                job_digest(result) == self.digests.get(name),
                f"{name}: parallel digest differs from the serial run")

    def traced(self) -> Dict[str, float]:
        gc.collect()
        sink = obs.InMemorySink()
        with obs.tracing(obs.Tracer(sink)):
            factor, wall, jobs = self.speed.timed(
                lambda: monitored_jobs(self.graphs, self.config))
        self.check_jobs(jobs, [])
        layers = online_layers(list(jobs.values()), sink.events,
                               self.config)
        layers["breakdown.wall_s"] = wall
        layers["obs.trace_overhead_frac"] = self.traced_overhead(factor,
                                                                 wall)
        return layers

    def inputs(self) -> Dict[str, Any]:
        return {
            "instances": instance_seeds(self.seed),
            "vertices": [g.plain.num_vertices for g in self.graphs],
            "edges": [g.plain.num_edges for g in self.graphs],
            "supersteps": dict(self.supersteps),
            "backend": self.config.backend,
            "workers": (PARALLEL_WORKERS if self.config.backend == "parallel"
                        else 1),
        }

    def close(self) -> None:
        if self.calibration is not None:
            self.calibration.close()


def online_layers(results: List[Any], events: List[Dict[str, Any]],
                  config: EngineConfig) -> Dict[str, float]:
    """Per-layer numbers of traced online runs: span totals from the
    trace, counts from the run metrics and the query result stats."""
    summary = obs.summarize(events)
    phases = summary["phases"]

    def total(category: str) -> float:
        return phases.get(category, {}).get("total_seconds", 0.0)

    def count(get: Callable[[Any], int]) -> int:
        return sum(get(result) for result in results)

    # Worker spans of the parallel backend overlap in time; dividing by
    # the worker count gives each layer's share of the critical path.
    parallel = config.backend == "parallel"
    workers = PARALLEL_WORKERS if parallel else 1
    query_eval = total(obs.PHASE_QUERY) / workers
    capture = total(obs.PHASE_CAPTURE) / workers
    probes = count(lambda r: r.query.stats["index_probes"])
    scans = count(lambda r: r.query.stats["index_scans"])
    prune_hits = count(lambda r: r.query.stats["prune_hits"])
    prune_checks = prune_hits + count(lambda r: r.query.stats["prune_misses"])
    return {
        "engine.compute_self_s": (total(obs.PHASE_COMPUTE) / workers
                                  - query_eval - capture),
        "engine.barrier_s": total(obs.PHASE_BARRIER),
        "engine.vertex_executions": count(
            lambda r: r.analytic.metrics.total_active_vertices),
        "engine.messages": count(lambda r: r.analytic.metrics.total_messages),
        "online.query_eval_s": query_eval,
        "online.capture_s": capture,
        "online.derivations": count(lambda r: r.query.derivations),
        "online.transient_rows": count(
            lambda r: r.query.stats["transient_rows"]),
        "online.prune_hit_ratio": (prune_hits / prune_checks
                                   if prune_checks else 0.0),
        "pql.index_probes": probes,
        "pql.index_scans": scans,
        "pql.probe_ratio": probes / (probes + scans) if probes else 0.0,
        "spill.writer_s": total(obs.PHASE_SPILL),
        "parallel.network_bytes": count(
            lambda r: r.analytic.metrics.total_network_bytes),
        "parallel.cross_worker_messages": (count(
            lambda r: r.analytic.metrics.total_cross_worker_messages)
            if parallel else 0),
        "parallel.transport_s": total("transport") / workers,
        "parallel.transport_wait_s": (
            (summary.get("transport") or {}).get("wait_seconds", 0.0)),
    }


# ----------------------------------------------------------------------
# capture: full capture through the columnar spill (Figure 7, Table 3)
# ----------------------------------------------------------------------
def store_digest(directory: str) -> str:
    """Content digest of a sealed store: its manifest's slab hashes."""
    with open(os.path.join(directory, "manifest.json"),
              encoding="utf-8") as fh:
        manifest = json.load(fh)
    return digest_json(manifest["slabs"])


def capture_and_seal(graph: Any, directory: str) -> Tuple[Any, int]:
    """Query 2 over PageRank, spilled to ``directory`` and sealed.

    The spill writer thread lives on after sealing and holds the captured
    store; the caller ends it with ``result.spill.close()``, which also
    deletes the sealed files. Without it every capture of a run stays in
    memory."""
    result = run_online(
        graph, PageRank(num_supersteps=PAGERANK_SUPERSTEPS),
        Q.CAPTURE_FULL_QUERY, capture=True, spill_directory=directory)
    return result, result.spill.seal_all()


class CaptureWorkload(Measured):
    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self.store_bytes = 0
        self.store_rows = 0
        self.count = 0
        self.bare_digest: Optional[str] = None
        self.store_digest: Optional[str] = None
        self.config = EngineConfig()

    def setup(self) -> None:
        self.graph = self.repeated_setup(
            lambda: make_graphs(self.seed, VERTICES["capture"])).plain

    def _directory(self) -> str:
        self.count += 1
        return os.path.join(SCRATCH_DIR, f"capture-{os.getpid()}-"
                                         f"{self.count}")

    def check(self, result: Any, directory: str, seal_bytes: int) -> None:
        problems, _ = obs.verify_store(directory)
        self.tally.check(not problems,
                         f"sealed store failed verification: {problems[:2]}")
        self.tally.check(
            ledger.digest_values(result.values) == self.bare_digest,
            "captured values differ from the bare run")
        digest = store_digest(directory)
        first = self.store_digest = self.store_digest or digest
        self.tally.check(digest == first,
                         "sealed store differs from this run's first")
        self.store_bytes = seal_bytes
        self.store_rows = result.store.num_rows

    def one_round(self) -> None:
        directory = self._directory()
        gc.collect()
        try:
            result, seal_bytes = self.timed("job_s", lambda: capture_and_seal(
                self.graph, directory))
            factor, _wall, bare = self.speed.timed(lambda: [timed(
                lambda: bare_run(
                    self.graph, PageRank(num_supersteps=PAGERANK_SUPERSTEPS),
                    self.config)) for _ in range(CAPTURE_BARE_REPEATS)])
        except Exception as exc:  # noqa: BLE001 - counted as a failure
            self.tally.fail(f"capture raised {exc!r}")
            shutil.rmtree(directory, ignore_errors=True)
            return
        for wall, run in bare:
            self.record("bare_s", factor, wall)
            digest = ledger.digest_values(run.values)
            self.bare_digest = self.bare_digest or digest
            self.tally.check(digest == self.bare_digest,
                             "bare PageRank differs from this run's first")
        self.check(result, directory, seal_bytes)
        result.spill.close()
        shutil.rmtree(directory, ignore_errors=True)

    def extra(self) -> Dict[str, Any]:
        return {"store_bytes": self.store_bytes}

    def traced(self) -> Dict[str, float]:
        directory = self._directory()
        gc.collect()
        sink = obs.InMemorySink()
        seal: Dict[str, Any] = {}

        def capture() -> Any:
            result = run_online(
                self.graph, PageRank(num_supersteps=PAGERANK_SUPERSTEPS),
                Q.CAPTURE_FULL_QUERY, capture=True,
                spill_directory=directory)
            seal["seconds"], seal["bytes"] = timed(result.spill.seal_all)
            return result

        try:
            with obs.tracing(obs.Tracer(sink)):
                factor, wall, result = self.speed.timed(capture)
            self.check(result, directory, seal["bytes"])
            result.spill.close()
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        layers = online_layers([result], sink.events, self.config)
        layers.update({
            "spill.seal_s": seal["seconds"],
            "store.rows": self.store_rows,
            "store.bytes": self.store_bytes,
            "breakdown.wall_s": wall,
            "obs.trace_overhead_frac": self.traced_overhead(factor, wall),
        })
        return layers

    def inputs(self) -> Dict[str, Any]:
        return {"vertices": self.graph.num_vertices,
                "edges": self.graph.num_edges,
                "supersteps": {"pagerank+query2": PAGERANK_SUPERSTEPS}}


# ----------------------------------------------------------------------
# lineage: Q9/Q10 served over HTTP from a sealed columnar store
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Request:
    due: float  # seconds after the load starts
    kind: str
    alpha: int
    sigma: int

    @property
    def query(self) -> str:
        return "query9" if self.kind == "query9" else "query10"


def make_schedule(seed: int, vertices: List[int],
                  count: int) -> List[Request]:
    """The seeded request mix: kinds uniform, (alpha, sigma) targets from
    a Zipf-skewed pool, due times at the fixed offered rate."""
    rng = random.Random(f"perfbench-lineage-{seed}")
    targets: List[Tuple[int, int]] = []
    while len(targets) < TARGET_POOL:
        target = (rng.choice(vertices), rng.randrange(*SIGMA_BAND))
        if target not in targets:
            targets.append(target)
    weights = [1.0 / (rank + 1) ** TARGET_SKEW for rank in range(TARGET_POOL)]
    schedule = []
    for i in range(count):
        alpha, sigma = rng.choices(targets, weights)[0]
        schedule.append(Request(i / LINEAGE_RATE_RPS,
                                rng.choice(REQUEST_KINDS), alpha, sigma))
    return schedule


def http_request(conn: http.client.HTTPConnection, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None
                 ) -> Tuple[int, Any]:
    payload = None if body is None else json.dumps(body).encode("utf-8")
    headers = {"Content-Type": "application/json"} if payload else {}
    conn.request(method, path, body=payload, headers=headers)
    response = conn.getresponse()
    raw = response.read()
    doc = json.loads(raw) if raw else None
    if isinstance(doc, dict):
        doc["_bytes"] = len(raw)
    return response.status, doc


class ServerProcess:
    """``repro serve`` over one sealed store, in a child process, with its
    shipped defaults (4 evaluation threads, digest-verified admission)."""

    def __init__(self, store_dir: str, trace_path: Optional[str] = None):
        ready = os.path.join(SCRATCH_DIR, f"ready-{os.getpid()}")
        if os.path.exists(ready):
            os.remove(ready)
        cmd = [sys.executable, "-m", "repro", "serve", "--store", store_dir,
               "--port", "0", "--ready-file", ready, "--quiet"]
        if trace_path is not None:
            cmd += ["--trace", trace_path]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        deadline = time.perf_counter() + SERVER_START_TIMEOUT_S
        while not (os.path.exists(ready) and os.path.getsize(ready)):
            if self.proc.poll() is not None or \
                    time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("query server did not start")
            time.sleep(0.01)
        with open(ready, encoding="utf-8") as fh:
            host, port = fh.read().strip().rsplit(":", 1)
        os.remove(ready)
        self.host, self.port = host, int(port)
        conn = self.connect()
        try:
            status, doc = http_request(conn, "GET", "/runs")
        finally:
            conn.close()
        if status != 200 or doc.get("count") != 1:
            self.stop()
            raise RuntimeError(f"unexpected catalog: {status} {doc}")
        self.run_id = doc["runs"][0]["run_id"]

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def stop(self) -> None:
        """SIGINT lets the server close its trace; kill if it lingers."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def send(conn: http.client.HTTPConnection, run_id: str,
         request: Request) -> Tuple[int, Any]:
    if request.kind == "lineage_get":
        return http_request(
            conn, "GET",
            f"/runs/{run_id}/lineage/{request.alpha}?sigma={request.sigma}")
    body: Dict[str, Any] = {
        "query": request.query,
        "params": {"alpha": request.alpha, "sigma": request.sigma},
    }
    if request.kind == "query10_page":
        body["limit"] = PAGE_LIMIT
    return http_request(conn, "POST", f"/runs/{run_id}/query", body)


@dataclasses.dataclass
class Reference:
    """Direct ``run_layered_from_spill`` evaluations of one target."""
    digest: str
    page: str
    stats: Dict[str, Any]


def response_digest(request: Request, doc: Dict[str, Any]) -> str:
    if request.kind == "query10_page":
        page = doc["page"]
        return page_digest(page["rows"], page["total_rows"])
    return result_digest(doc["result"]["relations"])


def response_problem(request: Request, status: int, doc: Any,
                     ref: Reference) -> Optional[str]:
    """Why a response does not match its reference, or None when it does."""
    if status != 200:
        return f"status {status}"
    try:
        digest = response_digest(request, doc)
    except Exception as exc:  # noqa: BLE001 - a malformed body is a failure
        return f"malformed response body ({exc!r})"
    expected = ref.page if request.kind == "query10_page" else ref.digest
    return None if digest == expected else "digest mismatch"


@dataclasses.dataclass
class Outcome:
    request: Request
    sent: float  # perf_counter at send
    done: float  # perf_counter at response
    late: float  # send minus due
    latency: float  # response minus due
    ok: bool
    doc: Optional[Dict[str, Any]]

    @property
    def request_s(self) -> float:
        return self.done - self.sent


class Calibrator:
    """Times the calibration loop on a background thread while the load
    runs, but only while no request is in flight and none is about to be
    sent, so it measures the host's speed and not the server's own load
    (see :class:`SpeedProbe`)."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (end, seconds)
        self.inflight = 0
        self.next_due = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop,
                                        name="perfbench-calibrator")

    def _quiet(self, now: float) -> bool:
        return (self.inflight == 0
                and self.next_due - now > 2 * CALIBRATION_NOMINAL_S)

    def _loop(self) -> None:
        last = 0.0
        while not self._stop.wait(0.005):
            now = time.perf_counter()
            if now - last >= CALIBRATION_PERIOD_S and self._quiet(now):
                seconds = calibration_seconds()
                last = time.perf_counter()
                self.samples.append((last, seconds))

    def __enter__(self) -> "Calibrator":
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:
            self.samples.append((time.perf_counter(), calibration_seconds()))

    def factor(self, start: float, end: float) -> float:
        """Scale factor for an interval, from the calibrations within one
        period of it (the nearest one when there are none)."""
        near = [s for t, s in self.samples
                if start - CALIBRATION_PERIOD_S <= t
                <= end + CALIBRATION_PERIOD_S]
        if not near:
            near = [min(self.samples, key=lambda ts: abs(ts[0] - end))[1]]
        return CALIBRATION_NOMINAL_S / statistics.mean(near)


def drive(server: ServerProcess, schedule: List[Request],
          references: Dict[Tuple[str, int, int], Reference],
          tally: Tally) -> Tuple[List[Outcome], float, Calibrator]:
    """Open-loop load over at most ``LINEAGE_CONNECTIONS`` connections.
    Each request is timed from when it was due, so a stalled connection
    charges its wait to the requests queued behind it."""
    outcomes: List[Outcome] = []
    lock = threading.Lock()
    cursor = [0]
    calibrator = Calibrator()
    start = time.perf_counter()

    def due(index: int) -> float:
        return (start + schedule[index].due if index < len(schedule)
                else float("inf"))

    def client() -> None:
        conn = server.connect()
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                    calibrator.next_due = due(index + 1)
                if index >= len(schedule):
                    return
                request = schedule[index]
                delay = due(index) - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    calibrator.inflight += 1
                sent = time.perf_counter()
                try:
                    status, doc = send(conn, server.run_id, request)
                except (OSError, http.client.HTTPException,
                        ValueError) as exc:
                    conn.close()
                    conn = server.connect()
                    status, doc = 0, {"error": repr(exc)}
                done = time.perf_counter()
                problem = response_problem(
                    request, status, doc,
                    references[(request.query, request.alpha,
                                request.sigma)])
                with lock:
                    calibrator.inflight -= 1
                    tally.check(problem is None,
                                f"{request.kind}({request.alpha}, "
                                f"{request.sigma}): {problem}")
                    outcomes.append(Outcome(
                        request, sent, done, sent - due(index),
                        done - due(index), problem is None,
                        doc if isinstance(doc, dict) else None))
        finally:
            conn.close()

    threads = [threading.Thread(target=client, name=f"perfbench-conn-{i}")
               for i in range(min(LINEAGE_CONNECTIONS, os.cpu_count() or 1))]
    calibrator.next_due = due(0)
    with calibrator:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    # A client thread that died leaves its requests without an outcome.
    tally.check(len(outcomes) == len(schedule),
                f"{len(outcomes)} of {len(schedule)} requests completed")
    return outcomes, time.perf_counter() - start, calibrator


class LineageWorkload(Measured):
    def __init__(self, seed: int) -> None:
        super().__init__()
        self.seed = seed
        self.outcomes: List[Outcome] = []
        self.window = 0.0
        self.server: Optional[ServerProcess] = None
        self.store_dir = os.path.join(SCRATCH_DIR, f"lineage-{os.getpid()}")
        #: The spill of the store being served (see capture_and_seal).
        self.spill: Optional[SpillManager] = None

    def _close_spill(self) -> None:
        if self.spill is not None:
            self.spill.close()
            self.spill = None
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def _build_store(self) -> Tuple[Graphs, int, List[str]]:
        """Graph, capture, seal and verification: one set-up repeat."""
        self._close_spill()
        graphs = make_graphs(self.seed, VERTICES["lineage"])
        result, seal_bytes = capture_and_seal(graphs.plain, self.store_dir)
        self.spill = result.spill
        self.store_rows = result.store.num_rows
        problems, _ = obs.verify_store(self.store_dir)
        return graphs, seal_bytes, problems

    def setup(self) -> None:
        graphs, self.store_bytes, problems = self.repeated_setup(
            self._build_store, LINEAGE_SETUP_REPEATS)
        self.tally.check(not problems,
                         f"lineage store failed verification: {problems[:2]}")
        self.graph = graphs.plain
        factor, wall, self.server = self.speed.timed(
            lambda: ServerProcess(self.store_dir))
        warm_factor, warm_wall, _ = self.speed.timed(self._warm_up)
        self.setup_once = (factor * wall + warm_factor * warm_wall,
                           wall + warm_wall)

    def setup_layers(self) -> Dict[str, float]:
        """Graph generation and store opening, timed apart from the rest
        of the set-up."""
        gen = [timed(lambda: make_graphs(self.seed, VERTICES["lineage"]))[0]
               for _ in range(SETUP_REPEATS)]
        opens = []
        for _ in range(SETUP_REPEATS):
            spill = SpillManager.open(self.store_dir)
            seconds, view = timed(lambda: open_store_view(spill))
            opens.append(seconds)
            view.close()
        return {"graph.gen_s": median(gen), "columnar.open_s": median(opens)}

    def _warm_up(self) -> None:
        """One request per endpoint on a target outside the load mix, so
        the first timed request does not pay connection and import costs;
        its status is checked too."""
        conn = self.server.connect()
        try:
            for kind in ("query10", "lineage_get"):
                status, _doc = send(conn, self.server.run_id,
                                    Request(0.0, kind, 0,
                                            PAGERANK_SUPERSTEPS - 1))
                self.tally.check(status == 200, f"warm-up {kind}: {status}")
        finally:
            conn.close()

    def references(self, schedule: List[Request]
                   ) -> Dict[Tuple[str, int, int], Reference]:
        """Direct evaluations (``REFERENCE_REPEATS`` each) of every
        (query, target) the schedule uses, plus one ``run_reference``
        oracle check on the first request's target."""
        refs: Dict[Tuple[str, int, int], Reference] = {}
        spill = SpillManager.open(self.store_dir)
        for request in schedule:
            key = (request.query, request.alpha, request.sigma)
            if key in refs:
                continue
            params = {"alpha": request.alpha, "sigma": request.sigma}
            for _ in range(REFERENCE_REPEATS):
                result = self.timed("bare_s", lambda: run_layered_from_spill(
                    spill, Q.NAMED_QUERIES[request.query], params=params))
                digest = result_digest(
                    serialize.result_to_dict(result)["relations"])
                if key not in refs:
                    flat = serialize.flatten_result(result)
                    page = [[rel, row] for rel, row in flat[:PAGE_LIMIT]]
                    refs[key] = Reference(digest, page_digest(page, len(flat)),
                                          result.stats)
                self.tally.check(digest == refs[key].digest,
                                 f"{key}: direct evaluation not repeatable")
        first = schedule[0]
        oracle = run_reference(
            rebuild_store(SpillManager.open(self.store_dir)),
            Q.NAMED_QUERIES[first.query],
            params={"alpha": first.alpha, "sigma": first.sigma})
        self.tally.check(
            result_digest(serialize.result_to_dict(oracle)["relations"])
            == refs[(first.query, first.alpha, first.sigma)].digest,
            "run_layered_from_spill differs from run_reference")
        return refs

    def measure(self, seconds: float) -> None:
        """Build the seeded mix for ``seconds`` at the offered rate, its
        references, then drive it and record each latency, scaled."""
        count = max(int(seconds * LINEAGE_RATE_RPS), 1)
        self.schedule = make_schedule(self.seed, sorted(self.graph.vertices()),
                                      count)
        self.refs = self.references(self.schedule)
        self.outcomes, self.window, calibrator = drive(
            self.server, self.schedule, self.refs, self.tally)
        for o in self.outcomes:
            self.record("job_s", calibrator.factor(o.sent, o.done),
                        o.latency)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        self._close_spill()

    def extra(self) -> Dict[str, Any]:
        latencies = [o.latency for o in self.outcomes]
        pct, tail = percentile_with_tail(latencies)
        good = sum(1 for o in self.outcomes
                   if o.ok and o.latency <= LINEAGE_LATENCY_LIMIT_S)
        return {
            "p50_ms": median(latencies) * 1000.0,
            f"p{pct}_ms" if pct else "tail_ms": tail * 1000.0,
            "goodput_rps": good / self.window if self.window else 0.0,
            "store_bytes": self.store_bytes,
        }

    def traced(self) -> Dict[str, float]:
        """The first ``TRACED_REQUESTS`` of the mix against a server
        started with ``--trace``; per-layer numbers from the response
        stats and the benchmark's own timers."""
        # The untraced latencies of the same requests, scaled.
        first = {id(r) for r in self.schedule[:TRACED_REQUESTS]}
        untraced = median([latency for o, latency
                           in zip(self.outcomes, self.scaled["job_s"])
                           if id(o.request) in first])
        self.server.stop()
        trace_path = os.path.join(SCRATCH_DIR, f"serve-{os.getpid()}.jsonl")
        self.server = ServerProcess(self.store_dir, trace_path)
        self._warm_up()
        outcomes, _window, calibrator = drive(
            self.server, self.schedule[:TRACED_REQUESTS], self.refs,
            self.tally)
        self.server.stop()
        events = obs.read_trace(trace_path)
        os.remove(trace_path)
        serve_spans = obs.summarize(events)["phases"].get(
            obs.PHASE_SERVE, {}).get("count", 0)
        self.tally.check(serve_spans >= len(outcomes),
                         f"traced server recorded {serve_spans} request "
                         f"spans for {len(outcomes)} requests")
        traced = median([o.latency * calibrator.factor(o.sent, o.done)
                         for o in outcomes])
        layers = self.layers(outcomes)
        layers["obs.trace_overhead_frac"] = traced / untraced - 1.0
        return layers

    def layers(self, outcomes: List[Outcome]) -> Dict[str, float]:
        docs = [o.doc or {} for o in outcomes]
        stats = [doc.get("stats", {}) for doc in docs]

        def kernel(kind: str) -> float:
            return sum(s.get("kernel_seconds", {}).get(kind, 0.0)
                       for s in stats)

        batched = sum(s.get("batched_scans", 0) for s in stats)
        fallback = sum(s.get("fallback_scans", 0) for s in stats)
        evals = [doc.get("wall_seconds", 0.0) for doc in docs]
        overheads = [o.request_s - e for o, e in zip(outcomes, evals)]
        refs = [self.refs[(o.request.query, o.request.alpha,
                           o.request.sigma)] for o in outcomes]
        return {
            "store.rows": self.store_rows,
            "store.bytes": self.store_bytes,
            "columnar.decoded_bytes": median(
                [r.stats.get("decoded_bytes", 0) for r in refs]),
            "columnar.peak_slab_bytes": median(
                [r.stats.get("peak_slab_bytes", 0) for r in refs]),
            "vectorized.batched_scans": batched,
            "vectorized.fallback_scans": fallback,
            "vectorized.batch_ratio": (batched / (batched + fallback)
                                       if batched else 0.0),
            "vectorized.kernel_selection_s": kernel("selection"),
            "vectorized.kernel_join_s": kernel("join"),
            "vectorized.kernel_head_s": kernel("head"),
            "serve.request_ms": median([o.request_s for o in outcomes])
            * 1000.0,
            "serve.eval_ms": median(evals) * 1000.0,
            "serve.overhead_ms": median(overheads) * 1000.0,
            "serve.overhead_s": sum(overheads),
            "serve.plan_cache_hit_ratio": (
                sum(doc.get("plan_cache") == "hit" for doc in docs)
                / len(docs)),
            "serve.response_bytes": statistics.mean(
                doc.get("_bytes", 0) for doc in docs),
            "lineage.generator_late_ms": median([o.late for o in outcomes])
            * 1000.0,
            "lineage.generator_late_s": sum(o.late for o in outcomes),
            "breakdown.wall_s": sum(o.latency for o in outcomes),
        }

    def inputs(self) -> Dict[str, Any]:
        return {"vertices": self.graph.num_vertices,
                "edges": self.graph.num_edges,
                "supersteps": {"pagerank+query2": PAGERANK_SUPERSTEPS},
                "offered_rps": LINEAGE_RATE_RPS,
                "connections": min(LINEAGE_CONNECTIONS, os.cpu_count() or 1),
                "requests": len(self.schedule),
                "target_pool": TARGET_POOL}


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def stop_children() -> None:
    """Reap the parallel backend's worker processes before exit."""
    gc.collect()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)


def breakdown(workload: str, layers: Dict[str, float]) -> List[str]:
    """Fill ``breakdown.other_s`` and render the critical-path lines."""
    parts = BREAKDOWN[workload]
    wall = layers["breakdown.wall_s"]
    layers["breakdown.other_s"] = wall - sum(layers[p] for p in parts)
    lines = [f"breakdown of the traced operation ({wall:.4f} s wall):"]
    for part in parts + ("breakdown.other_s",):
        share = layers[part] / wall if wall else 0.0
        lines.append(f"  {part:<34} {layers[part]:10.4f} s  {share:6.1%}")
    if workload == "capture":
        lines.append(f"  (off the critical path: spill.writer_s "
                     f"{layers['spill.writer_s']:.4f} s on the writer "
                     "thread)")
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool
        ) -> Dict[str, Any]:
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    if workload in ("monitor", "parallel"):
        bench: Measured = MonitorWorkload(workload, seed)
    elif workload == "capture":
        bench = CaptureWorkload(seed)
    else:
        bench = LineageWorkload(seed)
    layers: Dict[str, float] = {}
    try:
        bench.setup()
        bench.measure(seconds)
        bench.cross_check()
        if trace:
            layers = bench.traced()
            layers.update(bench.setup_layers())
    finally:
        bench.close()
        stop_children()
    medians = bench.medians()
    values = {"setup_s": medians["setup_s"], "job_s": medians["job_s"],
              "bare_s": medians["bare_s"], "peak_rss_mb": peak_rss_mb()}
    tally = bench.tally
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "environment": obs.environment_fingerprint(),
        "inputs": bench.inputs(),
        "samples": {name: medians[name + "_samples"]
                    for name in ("setup_s", "job_s", "bare_s")},
        "end_to_end": {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()},
        "raw": {name: medians["raw_" + name]
                for name in ("setup_s", "job_s", "bare_s")},
        "extra": bench.extra(),
        "overhead_ratio": (values["job_s"] / values["bare_s"]
                           if values["bare_s"] else None),
        "error_rate": tally.failed / tally.attempted if tally.attempted
        else 0.0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
        "lines": breakdown(workload, layers) if trace else [],
    }
    if trace:
        report["per_layer"] = {name: {"value": layers.get(name, 0.0),
                                      "unit": unit}
                               for name, unit in PER_LAYER.items()}
    return report


def render(report: Dict[str, Any]) -> List[str]:
    out = [f"perfbench {report['workload']}: seed {report['seed']}, "
           f"{report['seconds']} s, trace {int(report['trace'])}, "
           f"nproc {report['nproc']}, PYTHONHASHSEED "
           f"{report['python_hash_seed']}",
           "environment: " + json.dumps(report["environment"],
                                        sort_keys=True),
           "inputs: " + json.dumps(report["inputs"], sort_keys=True),
           "times are scaled to the reference speed (CALIBRATION_NOMINAL_S"
           f" = {CALIBRATION_NOMINAL_S}); raw wall-time medians in brackets"]
    for name, metric in report["end_to_end"].items():
        samples = report["samples"].get(name)
        raw = report["raw"].get(name)
        note = f" (median of {samples}; raw {raw:.4f} s)" if samples else ""
        out.append(f"  {name:<14} {metric['value']:12.4f} "
                   f"{metric['unit']}{note}")
    out.append(RAW_PREFIX + json.dumps(report["raw"], sort_keys=True))
    for name, value in report["extra"].items():
        out.append(f"  {name:<14} {value}")
    ratio = report["overhead_ratio"]
    if ratio is not None:
        out.append(f"  overhead ratio job_s/bare_s = {ratio:.3f} "
                   "(reported, not gated)")
    out.append(f"  error_rate     {report['error_rate']:.4f} "
               f"({report['failed']} of {report['attempted']} operations)")
    for reason in report["failures"]:
        out.append(f"  FAILED: {reason}")
    out.extend(report["lines"])
    for name, metric in report.get("per_layer", {}).items():
        out.append(f"  {name:<34} {metric['value']:>16.6g} "
                   f"{metric['unit']}")
    return out


def result_line(report: Dict[str, Any]) -> Dict[str, Any]:
    metrics = report["per_layer"] if report["trace"] else report["end_to_end"]
    return {"correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in render(report):
        print(line)
    print(json.dumps(result_line(report), sort_keys=True), flush=True)
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
