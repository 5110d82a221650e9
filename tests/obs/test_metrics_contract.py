"""The ``cod-metrics/1`` contract of ``serve-sim --metrics-out``, end to end.

Each test runs one ``serve-sim`` invocation through :func:`repro.cli.main`
into ``tmp_path`` and checks the keys and values an operator reads off
the written document:

* the in-process snapshot's shape (sections, stage histograms, cache
  mirrors, the byte-bounded LORE memo, bounded reservoirs);
* a live-update replay (epochs, update counters, incremental repair);
* a shared-pool fleet (``shm.*`` gauge and counters, the health block);
* shard-affinity dispatch (``shm.shard.*`` and ``affinity.*``);
* durability across two sessions (WAL, recovery, snapshots).

The schema tag, ``mode`` and the ``queries`` counter of an in-process
document are asserted by
``tests/obs/test_cli_obs.py::TestMetricsOut::test_in_process_snapshot_schema``
and are not repeated here.
"""

import json

import pytest

from repro.cli import main
from repro.datasets import load_dataset
from repro.utils.shm import close_all_segments

SCHEMA = "cod-metrics/1"


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    close_all_segments()


def serve_sim(out_path, *args) -> dict:
    """Run ``cod serve-sim cora ARGS --metrics-out OUT``; the document."""
    code = main(["serve-sim", "cora", *args, "--metrics-out", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema"] == SCHEMA, doc.get("schema")
    return doc


@pytest.fixture(scope="module")
def toggle_updates(tmp_path_factory):
    """Two batches that add and then remove one absent edge of cora-0.15.

    A grow/shrink toggle stays valid when a later session applies it again
    over recovered state.
    """
    graph = load_dataset("cora", scale=0.15, seed=7).graph
    u, v = next(
        (a, b)
        for a in range(graph.n)
        for b in range(a + 1, graph.n)
        if not graph.has_edge(a, b)
    )
    batches = [
        {"updates": [{"type": "edge", "u": u, "v": v, "add": True}],
         "at": 2, "label": "grow"},
        {"updates": [{"type": "edge", "u": u, "v": v, "add": False}],
         "at": 3, "label": "shrink"},
    ]
    path = tmp_path_factory.mktemp("updates") / "updates.jsonl"
    path.write_text("".join(json.dumps(batch) + "\n" for batch in batches))
    return path


def test_in_process_snapshot_schema(tmp_path):
    doc = serve_sim(tmp_path / "metrics.json", "--scale", "0.15",
                    "--queries", "2", "--theta", "2")
    assert doc["health"]["queries"] == 2
    metrics = doc["metrics"]
    assert set(metrics) == {"counters", "gauges", "histograms"}
    assert any(
        name.startswith("stage.") and name.endswith(".seconds")
        for name in metrics["histograms"]
    )
    assert any(name.startswith("cache.") for name in metrics["counters"]), (
        "bounded caches must mirror hit/miss counters into metrics"
    )
    lore_local_bytes = metrics["gauges"]["cache.lore_local.bytes"]
    assert lore_local_bytes <= doc["health"]["caches"]["lore_local"]["max_bytes"]
    for hist in metrics["histograms"].values():
        assert len(hist["values"]) <= hist["capacity"]


def test_live_update_replay(tmp_path, toggle_updates):
    doc = serve_sim(tmp_path / "metrics.json", "--scale", "0.15",
                    "--queries", "4", "--theta", "2", "--pool-seeded",
                    "--seed", "7", "--updates", str(toggle_updates))
    assert doc["mode"] == "in-process"
    assert doc["health"]["epoch"] == 2
    assert doc["health"]["updates"]["batches_applied"] == 2
    metrics = doc["metrics"]
    assert metrics["gauges"]["epoch"] == 2
    assert metrics["counters"]["updates.batches"] == 2
    assert metrics["counters"]["updates.applied"] == 2
    assert metrics["counters"]["arena.repaired_samples"] >= 1, (
        "structural updates must repair RR samples incrementally"
    )


def test_shared_pool_fleet(tmp_path):
    doc = serve_sim(tmp_path / "metrics.json", "--scale", "0.05",
                    "--queries", "6", "--theta", "3", "--workers", "2",
                    "--shared-pool", "--pool-seeded", "--seed", "11")
    gauges = doc["metrics"]["gauges"]
    counters = doc["metrics"]["counters"]
    assert gauges["shm.segment_bytes"] > 0, gauges
    assert counters["shm.attaches"] >= 2, counters
    assert counters["shm.publishes"] >= 1, counters
    assert counters["shm.sweeps"] >= 1, counters
    shm = doc["health"]["shm"]
    assert shm["enabled"] is True
    assert set(shm["segments"]) == {"graph", "arena"}
    assert gauges["shm.segment_bytes"] == shm["segment_bytes"]


def test_shard_affinity_fleet(tmp_path):
    # With threshold 1 every attribute turns hot, so routing must fire.
    doc = serve_sim(tmp_path / "metrics.json", "--scale", "0.05",
                    "--queries", "8", "--theta", "3", "--workers", "2",
                    "--shared-pool", "--pool-seeded",
                    "--shard-hot-threshold", "1", "--seed", "11")
    counters = doc["metrics"]["counters"]
    gauges = doc["metrics"]["gauges"]
    # The shard counters exist even at zero...
    for key in ("shm.shard.publishes", "shm.shard.rotations",
                "affinity.shard_hits", "affinity.shard_misses",
                "affinity.evictions"):
        assert key in counters, f"missing counter {key}: {counters}"
    # ...and here they moved.
    assert counters["shm.shard.publishes"] >= 1, counters
    assert counters["affinity.shard_hits"] >= 1, counters
    assert gauges["shm.shard.segment_bytes"] > 0, gauges
    shards = doc["health"]["shm"]["shards"]
    assert shards["enabled"] is True
    assert len(shards["published"]) >= 1
    assert shards["bytes"] == gauges["shm.shard.segment_bytes"]
    assert doc["health"]["affinity"]["shard_hits"] >= 1


def test_durability_across_sessions(tmp_path, toggle_updates):
    state_dir = str(tmp_path / "durable-state")
    common = ["--scale", "0.15", "--theta", "2", "--pool-seeded",
              "--seed", "7", "--updates", str(toggle_updates),
              "--state-dir", state_dir]
    # Session 1 writes epochs 1-2 to the WAL, with no snapshot.
    serve_sim(tmp_path / "first.json", "--queries", "2", *common)
    # Session 2 recovers epoch 2 by replaying the log over the base
    # graph, applies the toggle again (epochs 3-4) and snapshots.
    doc = serve_sim(tmp_path / "second.json", "--queries", "4", *common,
                    "--snapshot-every", "2")
    counters = doc["metrics"]["counters"]
    gauges = doc["metrics"]["gauges"]
    histograms = doc["metrics"]["histograms"]
    assert counters["recovery.runs"] == 1, counters
    assert gauges["recovery.replayed_epochs"] == 2, gauges
    assert gauges["recovery.epoch"] == 2, gauges
    assert histograms["recovery.seconds"]["count"] == 1
    assert counters["wal.appends"] == 2, counters
    assert counters["wal.fsyncs"] >= 2, counters
    assert counters["snapshot.saves"] >= 1, counters
    assert gauges["snapshot.epoch"] == 4, gauges
    assert gauges["epoch"] == 4, gauges
