"""The sealed columnar store: the query differential matrix,
out-of-core behavior, and corrupt or foreign slab handling.

The contract under test: query results over a sealed ARSC store are
**byte-identical** to the reference evaluator, indexed and scan,
vectorized and row-at-a-time, layered and naive — the on-disk layout may
only change cost, never answers. Queries 2 and 11 are capture-time
queries (they read transient stream relations and cannot run offline);
their guarantee is the row-level one asserted by
``test_rebuilt_stores_identical``. Slabs in any other format (the
framed-pickle and bare-pickle slabs of earlier releases) must fail at
open with a :class:`ProvenanceError` naming the slab, never load.
"""

import json
import os
import pickle
import struct
import zlib

import pytest

from repro.analytics.sssp import SSSP
from repro.core import queries as Q
from repro.errors import ProvenanceError
from repro.graph.generators import web_graph, with_random_weights
from repro.obs import ledger as obsledger
from repro.provenance.columnar import validate_columnar_file
from repro.provenance.spill import (
    MANIFEST_FILENAME,
    SpillManager,
    open_store_view,
    read_manifest,
    rebuild_store,
)
from repro.runtime.offline import (
    run_layered_from_spill,
    run_naive_from_spill,
    run_reference,
)
from repro.runtime.online import run_online


@pytest.fixture(scope="module")
def wgraph():
    return with_random_weights(
        web_graph(120, avg_degree=5, target_diameter=8, seed=41), seed=41
    )


@pytest.fixture(scope="module")
def full_store(wgraph):
    return run_online(
        wgraph, SSSP(source=0), Q.CAPTURE_FULL_QUERY, capture=True
    ).store


@pytest.fixture(scope="module")
def custom_store(wgraph):
    return run_online(
        wgraph, SSSP(source=0), Q.CAPTURE_BACKWARD_CUSTOM_QUERY, capture=True
    ).store


def _seal(store, directory, compression="zlib"):
    spill = SpillManager(store, directory=directory, compression=compression)
    spill.seal_all()
    return spill


def _framed_pickle_slab(chunks):
    """A slab in the framed-pickle layout earlier releases wrote: magic
    ``ARSL``, version 1, zlib codec, then length-prefixed per-relation
    pickles."""
    u32 = struct.Struct("<I")
    parts = [b"ARSL", bytes((1, 1)), u32.pack(len(chunks))]
    for key, value in chunks.items():
        payload = zlib.compress(pickle.dumps(value))
        key_bytes = key.encode("utf-8")
        parts += [u32.pack(len(key_bytes)), key_bytes,
                  u32.pack(len(payload)), payload]
    return b"".join(parts)


def _pickle_slab_bytes(spill, superstep, kind):
    """Layer ``superstep`` re-encoded as a ``"pickle"`` (framed) or
    ``"legacy"`` (one bare pickle) slab."""
    chunks = spill.load_layer(superstep)
    if kind == "pickle":
        return _framed_pickle_slab(chunks)
    return pickle.dumps(chunks)


@pytest.fixture(scope="module")
def sealed_dir(full_store, tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("store"))
    _seal(full_store, directory)
    return directory


@pytest.fixture(scope="module")
def lineage_params(full_store):
    sigma = full_store.max_superstep
    alpha = next(x for x, i in full_store.rows("superstep") if i == sigma)
    return {"alpha": alpha, "sigma": sigma}


# ---------------------------------------------------------------------------
# Queries 1-12: indexed and scan, vectorized and row, layered and naive
# ---------------------------------------------------------------------------
def query_cases(lineage_params):
    return {
        "query1": dict(params={"eps": 0.1}, udfs=Q.apt_udfs(SSSP(source=0))),
        "query3": dict(params={"source": 0}),
        "query4": dict(),
        "query5": dict(),
        "query6": dict(),
        "query7": dict(),
        "query8": dict(params={"eps": 0.01}),
        "query9": dict(params={"alpha": 0,
                               "sigma": lineage_params["sigma"]}),
        "query10": dict(params=lineage_params),
    }


@pytest.mark.parametrize("use_index", (True, False), ids=("indexed", "scan"))
@pytest.mark.parametrize("qname", [
    "query1", "query3", "query4", "query5", "query6", "query7", "query8",
    "query9", "query10",
])
def test_query_matrix(qname, use_index, sealed_dir, full_store, wgraph,
                      lineage_params):
    case = query_cases(lineage_params)[qname]
    query = Q.NAMED_QUERIES[qname]
    reference = run_reference(
        full_store, query, wgraph, case.get("params"), case.get("udfs"),
    )
    digests = set()
    spill = SpillManager.open(sealed_dir)
    for vectorize in (True, False):
        for driver in (run_layered_from_spill, run_naive_from_spill):
            result = driver(
                spill, query, wgraph, case.get("params"), case.get("udfs"),
                use_index=use_index, vectorize=vectorize,
            )
            for relation in reference.relations():
                assert result.rows(relation) == reference.rows(relation), (
                    f"{qname} vectorize={vectorize} {driver.__name__} "
                    f"{relation}"
                )
            assert result.stats["from_spill"]
            digests.add(obsledger.digest_query_result(result))
    assert len(digests) == 1, "results must be byte-identical across paths"


def test_query12_custom_store(custom_store, wgraph, lineage_params,
                              tmp_path_factory):
    reference = run_reference(
        custom_store, Q.NAMED_QUERIES["query12"], wgraph, lineage_params,
    )
    assert reference.count("back_trace") >= 1
    directory = str(tmp_path_factory.mktemp("custom"))
    _seal(custom_store, directory)
    spill = SpillManager.open(directory)
    digests = set()
    for vectorize in (True, False):
        result = run_layered_from_spill(
            spill, Q.NAMED_QUERIES["query12"], wgraph, lineage_params,
            vectorize=vectorize,
        )
        for relation in reference.relations():
            assert result.rows(relation) == reference.rows(relation)
        digests.add(obsledger.digest_query_result(result))
    assert digests == {obsledger.digest_query_result(reference)}


def test_rebuilt_stores_identical(sealed_dir, full_store):
    """The capture queries' guarantee: the sealed store rebuilds the exact
    same content (same rows, same layers, same relations)."""
    rebuilt = rebuild_store(SpillManager.open(sealed_dir))
    assert rebuilt.num_layers == full_store.num_layers
    assert rebuilt.counts() == full_store.counts()
    for relation in full_store.relations():
        assert (sorted(rebuilt.rows(relation), key=repr)
                == sorted(full_store.rows(relation), key=repr)), relation


def test_store_format_detection(sealed_dir, full_store):
    """Every sealed slab is a structurally valid ARSC file, and the
    manifest names the format."""
    slabs = sorted(n for n in os.listdir(sealed_dir) if n.endswith(".slab"))
    assert len(slabs) == full_store.num_layers + 1  # layers + static
    for name in slabs:
        validate_columnar_file(os.path.join(sealed_dir, name))
    assert read_manifest(sealed_dir)["format"] == "columnar"


# ---------------------------------------------------------------------------
# out-of-core: layers larger than the budget stay queryable
# ---------------------------------------------------------------------------
class TestOutOfCore:
    @pytest.fixture(scope="class")
    def raw_dir(self, full_store, tmp_path_factory):
        """Raw compression: decoded segment bytes then equal on-disk
        segment bytes, so load units compare in one currency."""
        directory = str(tmp_path_factory.mktemp("ooc"))
        _seal(full_store, directory, compression="raw")
        return directory

    def test_query10_answers_below_full_layer_load(
            self, raw_dir, full_store, wgraph, lineage_params):
        """The acceptance criterion: pick a budget *below* the largest
        full-layer decode but above the peak per-slab decode of Query 10's
        plan. The sealed view answers Query 10 correctly within it."""
        query = Q.NAMED_QUERIES["query10"]
        reference = run_reference(full_store, query, wgraph, lineage_params)

        spill = SpillManager.open(raw_dir)
        unbudgeted = run_layered_from_spill(
            spill, query, wgraph, lineage_params,
        )
        peak_decoded = unbudgeted.stats["peak_slab_bytes"]
        assert unbudgeted.stats["store_format"] == "columnar"
        assert unbudgeted.stats["decoded_bytes"] >= peak_decoded > 0

        largest_layer = max(
            spill.open_columnar_slab(t).raw_bytes()
            for t in spill.sealed_layers()
        )
        spill.release_slabs()
        # The substantive claim: Query 10's load unit is smaller than any
        # whole-layer load unit, because the plan never touches
        # receive_message's columns.
        assert peak_decoded < largest_layer
        budget = (peak_decoded + largest_layer) // 2

        result = run_layered_from_spill(
            SpillManager.open(raw_dir), query, wgraph,
            lineage_params, memory_budget_bytes=budget,
        )
        assert result.stats["peak_slab_bytes"] <= budget
        for relation in reference.relations():
            assert result.rows(relation) == reference.rows(relation)

    def test_columnar_budget_too_small_raises(self, raw_dir, wgraph,
                                              lineage_params):
        spill = SpillManager.open(raw_dir)
        with pytest.raises(MemoryError, match="memory budget"):
            run_layered_from_spill(
                spill, Q.NAMED_QUERIES["query10"], wgraph, lineage_params,
                memory_budget_bytes=1,
            )

    def test_naive_budget_stays_format_independent(
            self, raw_dir, wgraph, lineage_params):
        """Naive evaluation materializes everything by definition, so its
        up-front budget check fails even though the view is lazy."""
        spill = SpillManager.open(raw_dir)
        budget = spill.total_sealed_bytes() - 1
        with pytest.raises(MemoryError, match="materialize all sealed"):
            run_naive_from_spill(
                spill, Q.NAMED_QUERIES["query10"], wgraph, lineage_params,
                memory_budget_bytes=budget,
            )


# ---------------------------------------------------------------------------
# sealed view semantics
# ---------------------------------------------------------------------------
class TestSealedView:
    def test_view_matches_store(self, sealed_dir, full_store):
        view = open_store_view(SpillManager.open(sealed_dir))
        try:
            assert view.num_layers == full_store.num_layers
            assert view.counts() == full_store.counts()
            assert view.execution_nodes() == full_store.execution_nodes()
            for relation in full_store.relations():
                for vertex in full_store.vertices(relation):
                    assert (view.partition(relation, vertex)
                            == full_store.partition(relation, vertex))
        finally:
            view.close()

    def test_unknown_relation_is_empty_read(self, sealed_dir):
        view = open_store_view(SpillManager.open(sealed_dir))
        try:
            assert view.partition("never_captured", 0) == frozenset()
            assert view.probe("never_captured", 0, (1,), (0,)) == ()
        finally:
            view.close()


# ---------------------------------------------------------------------------
# corrupt or foreign slabs surface as ProvenanceError at open
# ---------------------------------------------------------------------------
class TestCorruptStores:
    def _sealed(self, full_store, tmp_path):
        directory = str(tmp_path / "store")
        return _seal(full_store, directory)

    def _replace_layer(self, spill, superstep, kind, restamp=False):
        """Overwrite one layer slab with a ``"pickle"`` or ``"legacy"``
        slab of the same rows; ``restamp`` updates the manifest digest so
        digest verification passes and only the format is wrong."""
        data = _pickle_slab_bytes(spill, superstep, kind)
        path = spill.slab_path(superstep)
        with open(path, "wb") as fh:
            fh.write(data)
        if restamp:
            manifest_path = os.path.join(spill.directory, MANIFEST_FILENAME)
            manifest = read_manifest(spill.directory)
            manifest["slabs"][os.path.basename(path)] = {
                "sha256": obsledger.digest_file(path), "bytes": len(data),
            }
            with open(manifest_path, "w", encoding="utf-8") as fh:
                json.dump(manifest, fh)
        return path

    @pytest.mark.parametrize("fmt,kind", [
        ("columnar", "columnar (ARSC)"),
        ("pickle", "framed (ARSL)"),
        ("legacy", "bare pickle"),
    ])
    def test_truncated_slab_fails_open(self, full_store, tmp_path, fmt,
                                       kind):
        """A truncated slab of any kind fails at open, naming the file."""
        spill = self._sealed(full_store, tmp_path)
        if fmt != "columnar":
            self._replace_layer(spill, 1, fmt)
        victim = spill.slab_path(1)
        data = open(victim, "rb").read()
        with open(victim, "wb") as fh:
            fh.write(data[: max(5, len(data) // 3)])
        with pytest.raises(ProvenanceError) as err:
            SpillManager.open(spill.directory)
        message = str(err.value)
        assert "layer-000001.slab" in message
        if fmt == "columnar":
            assert "columnar (ARSC)" in message
        else:
            assert "not a columnar (ARSC) slab" in message

    @pytest.mark.parametrize("fmt", ["pickle", "legacy"])
    def test_pickle_slab_fails_open(self, full_store, tmp_path, fmt):
        """A complete framed-pickle or bare-pickle slab is rejected, never
        loaded: ARSC is the only readable slab format."""
        spill = self._sealed(full_store, tmp_path)
        path = self._replace_layer(spill, 2, fmt)
        with pytest.raises(ProvenanceError,
                           match="not a columnar \\(ARSC\\) slab") as err:
            SpillManager.open(spill.directory)
        assert path in str(err.value)

    @pytest.mark.parametrize("fmt", ["pickle", "legacy"])
    def test_pickle_slab_fails_serve_admission(self, full_store, tmp_path,
                                               fmt):
        """Serve admission rejects it too, even when the manifest digests
        match the foreign bytes."""
        from repro.serve.catalog import RunCatalog

        spill = self._sealed(full_store, tmp_path)
        path = self._replace_layer(spill, 2, fmt, restamp=True)
        assert obsledger.verify_store(spill.directory)[0] == []
        catalog = RunCatalog(verify=True)
        with pytest.raises(ProvenanceError,
                           match="not a columnar \\(ARSC\\) slab") as err:
            catalog.register_path(spill.directory)
        assert path in str(err.value)
        assert len(catalog) == 0

    def test_empty_slab_fails_open(self, full_store, tmp_path):
        directory = self._sealed(full_store, tmp_path).directory
        victim = os.path.join(directory, "layer-000000.slab")
        open(victim, "wb").close()
        with pytest.raises(ProvenanceError, match="empty file"):
            SpillManager.open(directory)

    def test_corrupt_footer_fails_open(self, full_store, tmp_path):
        directory = self._sealed(full_store, tmp_path).directory
        victim = os.path.join(directory, "layer-000002.slab")
        data = open(victim, "rb").read()
        with open(victim, "wb") as fh:
            fh.write(data[:-4] + b"XXXX")
        with pytest.raises(ProvenanceError,
                           match=r"columnar \(ARSC\).*layer-000002"):
            SpillManager.open(directory)
