"""Differential suite: the ring transport == the serial engine.

The transport must be observationally invisible: for every analytic,
worker count, and transport in ``TRANSPORTS``, the run must produce
byte-identical values, supersteps, aggregators, and metrics counts to
the serial engine — including the online provenance-capture path and
checkpoint payloads.
"""

import pytest

from repro.analytics.pagerank import PageRank
from repro.analytics.sssp import SSSP
from repro.analytics.wcc import WCC
from repro.core.ariadne import Ariadne
from repro.engine.checkpoint import (
    CheckpointedEngine,
    latest_checkpoint,
    load_checkpoint,
    resume,
)
from repro.engine.config import EngineConfig
from repro.engine.engine import PregelEngine
from repro.graph.generators import grid_graph, web_graph, with_random_weights
from repro.parallel.engine import ParallelEngine, last_worker_stamp

TRANSPORTS = ("ring",)
WORKER_COUNTS = (1, 2, 4)

ANALYTICS = {
    "pagerank": lambda: PageRank(num_supersteps=12).make_program(),
    "sssp": lambda: SSSP(source=0).make_program(),
    "wcc": lambda: WCC().make_program(),
}


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(110, avg_degree=4, target_diameter=8, seed=29), seed=29
    )


def _config(workers):
    return EngineConfig(num_workers=workers, backend="parallel")


def _run(graph, factory, workers, transport, **engine_kwargs):
    with ParallelEngine(
        graph, config=_config(workers), **engine_kwargs
    ) as engine:
        result = engine.run(factory())
    assert last_worker_stamp()["transport"] == transport
    return result


def assert_identical(a, b):
    assert a.values == b.values
    assert a.num_supersteps == b.num_supersteps
    assert a.halt_reason == b.halt_reason
    assert a.aggregators == b.aggregators
    assert a.edge_values == b.edge_values


class TestRingEqualsQueueEqualsSerial:
    """Every transport in ``TRANSPORTS`` against the serial engine (the
    class name is kept so test ids stay stable)."""

    @pytest.mark.parametrize("analytic", sorted(ANALYTICS))
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_three_way(self, wgraph, analytic, workers):
        factory = ANALYTICS[analytic]
        serial = PregelEngine(
            wgraph, config=EngineConfig(num_workers=workers)
        ).run(factory())
        s = serial.metrics.summary()
        for transport in TRANSPORTS:
            result = _run(wgraph, factory, workers, transport)
            assert_identical(result, serial)
            p = result.metrics.summary()
            for key in ("supersteps", "vertex_executions", "messages",
                        "cross_worker_messages"):
                assert p[key] == s[key], (analytic, key)
            # pre-combining moves folds to the sender, never changes the
            # total: combined + precombined == serial combined
            assert (p["messages_combined"] + p["messages_precombined"]
                    == s["messages_combined"]), analytic

    def test_transports_ship_same_wire_volume_shape(self, wgraph):
        # every transport must measure *something* when messages cross
        # workers, and nothing at 1 worker
        for transport in TRANSPORTS:
            multi = _run(wgraph, ANALYTICS["sssp"], 4, transport)
            solo = _run(wgraph, ANALYTICS["sssp"], 1, transport)
            assert multi.metrics.summary()["network_bytes"] > 0, transport
            assert solo.metrics.summary()["network_bytes"] == 0, transport

    def test_precombine_only_on_associative_combiners(self, wgraph):
        # SSSP's MinCombiner is associative -> sender-side folds happen;
        # PageRank's SumCombiner is not (float addition) -> none allowed
        sssp = _run(wgraph, ANALYTICS["sssp"], 4, "ring")
        assert sssp.metrics.summary()["messages_precombined"] > 0
        pagerank = _run(wgraph, ANALYTICS["pagerank"], 4, "ring")
        assert pagerank.metrics.summary()["messages_precombined"] == 0


class TestOnlineCaptureDifferential:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_apt_query_identical(self, transport):
        grid = grid_graph(8, 8)
        serial = Ariadne(grid, PageRank()).apt(epsilon=0.01)
        parallel = Ariadne(grid, PageRank(), _config(4)).apt(epsilon=0.01)
        assert last_worker_stamp()["transport"] == transport
        assert parallel.values == serial.values
        assert parallel.query.relations() == serial.query.relations()
        for rel in serial.query.relations():
            assert parallel.query.rows(rel) == serial.query.rows(rel), rel


class TestCheckpointDifferential:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_checkpoint_payloads_match_serial(self, wgraph, tmp_path,
                                              transport):
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / transport
        CheckpointedEngine(
            wgraph, str(serial_dir), interval=4,
            config=EngineConfig(num_workers=2),
        ).run(ANALYTICS["pagerank"]())
        _run(
            wgraph, ANALYTICS["pagerank"], 2, transport,
            checkpoint_dir=str(parallel_dir), checkpoint_interval=4,
        )
        s = load_checkpoint(latest_checkpoint(str(serial_dir)))
        p = load_checkpoint(latest_checkpoint(str(parallel_dir)))
        assert p.superstep == s.superstep
        assert p.values == s.values
        assert p.halted == s.halted
        assert p.inbox == s.inbox

    def test_serial_resume_from_ring_checkpoint(self, wgraph, tmp_path):
        full = PregelEngine(
            wgraph, config=EngineConfig(num_workers=2)
        ).run(ANALYTICS["pagerank"]())
        _run(
            wgraph, ANALYTICS["pagerank"], 2, "ring",
            checkpoint_dir=str(tmp_path), checkpoint_interval=5,
        )
        resumed = resume(
            wgraph, ANALYTICS["pagerank"](), str(tmp_path),
            config=EngineConfig(num_workers=2),
        )
        assert resumed.values == full.values
        assert resumed.halt_reason == full.halt_reason
        # the resumed engine only runs the post-checkpoint tail
        assert resumed.num_supersteps < full.num_supersteps
