"""Unit tests for the durable state store (repro.serving.durability).

The chaos drill (``test_durability_chaos.py``) proves the end-to-end
guarantees under SIGKILL; this file pins each component's contract in
isolation: WAL framing/torn-tail repair, snapshot quarantine, recovery
proofs, and the server/supervisor ack-after-fsync wiring.
"""

import json

import numpy as np
import pytest

from repro.core.himor import graph_checksum
from repro.dynamic import AttrUpdate, EdgeUpdate, UpdateBatch, UpdateLog
from repro.dynamic.updates import apply_updates
from repro.errors import RecoveryError, WalError
from repro.serving import CODServer, DurableStateStore, ServingSupervisor
from repro.serving.durability import (
    WAL_NAME,
    RecoveryManager,
    SnapshotStore,
    WriteAheadLog,
)
from repro.utils.faults import FaultInjected, corrupt_file, inject

from tests.oracle.reference import charge_buckets

THETA = 3
SEED = 11


def batch_for(graph, index: int, add: bool = True) -> UpdateBatch:
    """The ``index``-th non-edge of ``graph`` as a one-update batch."""
    non_edges = [
        (u, v)
        for u in range(graph.n)
        for v in range(u + 1, graph.n)
        if not graph.has_edge(u, v)
    ]
    u, v = non_edges[index]
    return UpdateBatch(updates=(EdgeUpdate(u, v, add=add),))


def fill(store: DurableStateStore, graph, batches) -> "tuple[object, int]":
    """Apply + acknowledge ``batches`` through ``store``; returns tip."""
    epoch = store.epoch
    for batch in batches:
        graph = apply_updates(graph, batch.updates)
        epoch = store.append(batch, graph_sha=graph_checksum(graph))
        store.maybe_snapshot(graph, epoch)
    return graph, epoch


class TestWriteAheadLog:
    def test_append_roundtrip(self, paper_graph, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.jsonl")
        assert wal.epoch == 0
        b1, b2 = batch_for(paper_graph, 0), batch_for(paper_graph, 1)
        assert wal.append(b1, graph_sha="abc") == 1
        assert wal.append(b2) == 2
        wal.close()
        back = WriteAheadLog(tmp_path / "wal.jsonl")
        assert back.epoch == 2
        assert [r.epoch for r in back.records] == [1, 2]
        assert back.records[0].graph_sha == "abc"
        assert back.records[0].batch == b1
        assert back.truncated_records == 0
        back.close()

    def test_torn_tail_truncated_exactly(self, paper_graph, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(batch_for(paper_graph, 0))
        wal.append(batch_for(paper_graph, 1))
        wal.close()
        intact = path.read_bytes()
        path.write_bytes(intact + b'{"epoch": 3, "batch": {"upd')
        repaired = WriteAheadLog(path)
        # Exactly the torn suffix is gone; both acknowledged epochs live.
        assert repaired.epoch == 2
        assert repaired.truncated_records == 1
        assert path.read_bytes() == intact
        repaired.close()

    def test_corrupt_file_torn_tail_mode(self, paper_graph, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(batch_for(paper_graph, 0))
        wal.append(batch_for(paper_graph, 1))
        wal.close()
        corrupt_file(path, mode="torn-tail")
        repaired = WriteAheadLog(path)
        # The injected tear cuts the *last* record mid-line — that epoch
        # is treated as never acknowledged and truncated away.
        assert repaired.epoch == 1
        assert repaired.truncated_records == 1
        repaired.close()

    def test_corruption_inside_prefix_raises(self, paper_graph, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(batch_for(paper_graph, 0))
        wal.append(batch_for(paper_graph, 1))
        wal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"%%garbage%%\n" + lines[1])
        with pytest.raises(WalError, match="inside acknowledged prefix"):
            WriteAheadLog(path)

    def test_crc_mismatch_mid_file_raises(self, paper_graph, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(batch_for(paper_graph, 0))
        wal.append(batch_for(paper_graph, 1))
        wal.close()
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["epoch"] = 5  # CRC no longer matches
        path.write_text(json.dumps(doc, sort_keys=True) + "\n" + lines[1] + "\n")
        with pytest.raises(WalError, match="CRC mismatch"):
            WriteAheadLog(path)

    def test_epoch_gap_raises(self, paper_graph, tmp_path):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(batch_for(paper_graph, 0))
        wal.append(batch_for(paper_graph, 1))
        wal.close()
        lines = path.read_text().splitlines()
        path.write_text(lines[0] + "\n" + lines[0] + "\n")
        with pytest.raises(WalError, match="contiguity"):
            WriteAheadLog(path)

    def test_compact_drops_prefix_and_survives_reopen(
        self, paper_graph, tmp_path
    ):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        for i in range(4):
            wal.append(batch_for(paper_graph, i))
        assert wal.compact(2) == 2
        assert wal.epoch == 4
        assert wal.floor == 2
        # The compacted log keeps accepting appends...
        assert wal.append(batch_for(paper_graph, 4)) == 5
        wal.close()
        # ...and a reopen sees the floor marker, not a gap.
        back = WriteAheadLog(path)
        assert back.floor == 2
        assert [r.epoch for r in back.records] == [3, 4, 5]
        back.close()

    def test_injected_append_fault_is_not_acknowledged(
        self, paper_graph, tmp_path
    ):
        path = tmp_path / "wal.jsonl"
        wal = WriteAheadLog(path)
        wal.append(batch_for(paper_graph, 0))
        with inject(site="wal_append", exc=FaultInjected):
            with pytest.raises(WalError):
                wal.append(batch_for(paper_graph, 1))
        assert wal.epoch == 1  # the failed epoch was never acknowledged
        wal.close()
        back = WriteAheadLog(path)
        # The buffered-but-unflushed line is a torn tail at worst; the
        # acknowledged prefix is intact either way.
        assert back.epoch == 1
        back.close()


class TestSnapshotStore:
    def test_save_latest_roundtrip(self, paper_graph, tmp_path):
        store = SnapshotStore(tmp_path)
        store.save(paper_graph, 3, manifest={"note": "x"})
        epoch, graph, manifest = store.latest()
        assert epoch == 3
        assert graph_checksum(graph) == graph_checksum(paper_graph)
        assert graph.attributes_of(0) == paper_graph.attributes_of(0)
        assert manifest == {"note": "x"}

    def test_prune_keeps_newest(self, paper_graph, tmp_path):
        store = SnapshotStore(tmp_path, keep=2)
        for epoch in (1, 2, 3):
            store.save(paper_graph, epoch)
        assert store.epochs() == [2, 3]

    def test_corrupt_snapshot_quarantined_not_deleted(
        self, paper_graph, tmp_path
    ):
        store = SnapshotStore(tmp_path, keep=3)
        store.save(paper_graph, 1)
        store.save(paper_graph, 2)
        newest = tmp_path / "epoch-00000002.json"
        corrupt_file(newest, mode="flip", seed=5)
        epoch, _graph, _ = store.latest()
        assert epoch == 1  # fell back to the older snapshot
        assert not newest.exists()
        quarantine = tmp_path / "epoch-00000002.json.quarantine"
        assert quarantine.exists()  # evidence kept, never deleted
        assert store.quarantined == [quarantine]
        assert store.epochs() == [1]

    def test_latest_on_empty_dir(self, tmp_path):
        assert SnapshotStore(tmp_path / "none").latest() is None


class TestRecovery:
    def test_wal_only_and_snapshot_dirs_recover_the_replay_oracle(
        self, paper_graph, tmp_path
    ):
        # One multi-epoch history of edge toggles and attribute grants,
        # written once as a WAL-only state dir and once with a snapshot
        # cadence whose compaction truncates the log past a snapshot.
        # Both must land on the in-memory replay oracle's graph.
        extra = max(paper_graph.attribute_universe) + 1
        batches = []
        for j in range(6):
            u, v = batch_for(paper_graph, j).updates[0].key()
            batches.append(UpdateBatch(updates=(
                EdgeUpdate(u, v, add=True),
                AttrUpdate(j % paper_graph.n, extra, add=True),
            )))
            batches.append(UpdateBatch(updates=(
                EdgeUpdate(u, v, add=False),
                AttrUpdate(j % paper_graph.n, extra, add=False),
            )))
            batches.append(UpdateBatch(updates=(
                AttrUpdate((j + 3) % paper_graph.n, extra + 1 + j, add=True),
            )))
        log = UpdateLog()
        for batch in batches:
            log.append(batch)
        oracle = log.replay(paper_graph)

        results = {}
        for name, cadence in (("wal-only", None), ("snapshots", 4)):
            state_dir = tmp_path / name
            store = DurableStateStore(state_dir, snapshot_every=cadence)
            store.recover(base_graph=paper_graph)
            fill(store, paper_graph, batches)
            store.close()
            back = DurableStateStore(state_dir, snapshot_every=cadence)
            results[name] = back.recover(base_graph=paper_graph)
            back.close()

        cold, warm = results["wal-only"], results["snapshots"]
        assert cold.snapshot_epoch is None
        assert cold.replayed_epochs == len(batches)
        assert warm.snapshot_epoch is not None
        assert warm.replayed_epochs < len(batches)
        wal = WriteAheadLog(tmp_path / "snapshots" / WAL_NAME)
        assert wal.floor > 0  # compacted past a snapshot
        wal.close()
        for result in (cold, warm):
            assert result.epoch == len(batches)
            assert result.graph_sha == graph_checksum(oracle)
            for v in range(paper_graph.n):
                assert result.graph.attributes_of(v) == oracle.attributes_of(v)

    def test_first_boot_from_base_graph(self, paper_graph, tmp_path):
        store = DurableStateStore(tmp_path)
        result = store.recover(base_graph=paper_graph)
        assert result.epoch == 0
        assert result.snapshot_epoch is None
        assert result.graph_sha == graph_checksum(paper_graph)
        store.close()

    def test_nothing_to_recover_from(self, tmp_path):
        with pytest.raises(RecoveryError, match="no valid snapshot"):
            RecoveryManager(tmp_path).recover()

    def test_snapshot_plus_wal_suffix(self, paper_graph, tmp_path):
        store = DurableStateStore(tmp_path, snapshot_every=2)
        store.recover(base_graph=paper_graph)
        batches = [batch_for(paper_graph, i) for i in range(5)]
        graph, _ = fill(store, paper_graph, batches)
        store.close()

        back = DurableStateStore(tmp_path, snapshot_every=2)
        result = back.recover(base_graph=paper_graph)
        assert result.epoch == 5
        assert result.snapshot_epoch == 4
        assert result.replayed_epochs == 1
        assert result.graph_sha == graph_checksum(graph)
        back.close()

    def test_corrupt_newest_snapshot_falls_back_and_replays(
        self, paper_graph, tmp_path
    ):
        store = DurableStateStore(tmp_path, snapshot_every=2)
        store.recover(base_graph=paper_graph)
        batches = [batch_for(paper_graph, i) for i in range(4)]
        graph, _ = fill(store, paper_graph, batches)
        store.close()
        corrupt_file(tmp_path / "snapshots" / "epoch-00000004.json",
                     mode="truncate")

        back = DurableStateStore(tmp_path, snapshot_every=2)
        result = back.recover(base_graph=paper_graph)
        # Compaction lags one snapshot, so epochs 3..4 are still in the
        # WAL and the older snapshot covers the rest: nothing lost.
        assert result.epoch == 4
        assert result.snapshot_epoch == 2
        assert result.replayed_epochs == 2
        assert result.graph_sha == graph_checksum(graph)
        assert len(result.quarantined) == 1
        assert result.quarantined[0].endswith(".quarantine")
        back.close()

    def test_graph_sha_mismatch_refuses_to_serve(self, paper_graph, tmp_path):
        store = DurableStateStore(tmp_path)
        store.recover(base_graph=paper_graph)
        store.append(batch_for(paper_graph, 0), graph_sha="0" * 64)
        store.close()
        with pytest.raises(RecoveryError, match="graph checksum"):
            DurableStateStore(tmp_path).recover(base_graph=paper_graph)

    def test_compacted_wal_with_no_snapshot_is_a_gap(
        self, paper_graph, tmp_path
    ):
        store = DurableStateStore(tmp_path, snapshot_every=2)
        store.recover(base_graph=paper_graph)
        fill(store, paper_graph, [batch_for(paper_graph, i) for i in range(4)])
        store.close()
        # Quarantine-by-hand every snapshot: the WAL floor now points past
        # anything reachable from the base graph.
        snapdir = tmp_path / "snapshots"
        for snap in snapdir.glob("epoch-*.json"):
            snap.rename(snap.with_name(snap.name + ".quarantine"))
        with pytest.raises(RecoveryError, match="unreachable"):
            DurableStateStore(tmp_path).recover(base_graph=paper_graph)

    def test_append_before_recover_raises(self, paper_graph, tmp_path):
        store = DurableStateStore(tmp_path)
        with pytest.raises(WalError, match="before recover"):
            store.append(batch_for(paper_graph, 0))


class TestServerWiring:
    def make_server(self, graph, store) -> CODServer:
        return CODServer(graph, theta=THETA, seed=SEED, state_store=store)

    def test_ack_after_fsync_ordering(self, paper_graph, tmp_path):
        store = DurableStateStore(tmp_path)
        store.recover(base_graph=paper_graph)
        server = self.make_server(paper_graph, store)
        before_graph = server.graph
        with inject(site="wal_append", exc=FaultInjected):
            with pytest.raises(WalError):
                server.apply_updates(batch_for(paper_graph, 0))
        # WAL failure aborts *before* any mutation: same epoch, same graph.
        assert server.epoch == 0
        assert server.graph is before_graph
        assert store.epoch == 0
        report = server.apply_updates(batch_for(paper_graph, 0))
        assert report["epoch"] == 1
        assert store.epoch == 1
        store.close()

    def test_server_restart_recovers_bit_identical_answers(
        self, paper_graph, tmp_path
    ):
        from repro.core.problem import CODQuery

        store = DurableStateStore(tmp_path, snapshot_every=2)
        store.recover(base_graph=paper_graph)
        server = self.make_server(paper_graph, store)
        for i in range(3):
            server.apply_updates(batch_for(paper_graph, i))
        queries = [CODQuery(v, 0, 3) for v in (0, 4, 7)]
        expected = [server.answer(q) for q in queries]
        live_graph = server.graph
        store.close()

        back = DurableStateStore(tmp_path, snapshot_every=2)
        result = back.recover(base_graph=paper_graph)
        assert result.epoch == 3
        assert result.graph_sha == graph_checksum(live_graph)
        revived = self.make_server(result.graph, back)
        revived.epoch = result.epoch
        for query, want in zip(queries, expected):
            got = revived.answer(query)
            assert np.array_equal(got.members, want.members)
        back.close()

    def test_served_index_matches_rebuild_from_log_after_every_batch(
        self, paper_graph, tmp_path
    ):
        # A pooled-seeded server carries its HIMOR index across every
        # logged batch; after each one, the index must equal a fresh
        # build on the graph recovered from the durable log.
        from repro.core.pool import SharedSamplePool

        def pooled(graph, store=None) -> CODServer:
            pool = SharedSamplePool(graph, theta=THETA, seed=SEED,
                                    per_sample_seeds=True)
            return CODServer(graph, theta=THETA, seed=SEED, pool=pool,
                             state_store=store)

        store = DurableStateStore(tmp_path / "live")
        store.recover(base_graph=paper_graph)
        server = pooled(paper_graph, store)
        server.warm()
        for i in range(6):
            batch = batch_for(paper_graph, i // 2, add=i % 2 == 0)
            server.apply_updates(batch)
            replay = DurableStateStore(tmp_path / "live")
            result = replay.recover(base_graph=paper_graph)
            assert result.epoch == server.epoch == i + 1
            fresh = pooled(result.graph).index
            served = server.index
            assert np.array_equal(served.hierarchy.parents,
                                  fresh.hierarchy.parents)
            assert charge_buckets(served._charges, paper_graph.n) == (
                charge_buckets(fresh._charges, paper_graph.n)
            )
            for v in range(paper_graph.n):
                assert np.array_equal(served.ranks_of(v), fresh.ranks_of(v))
            replay.close()
        store.close()

    def test_epoch_desync_with_store_refused(self, paper_graph, tmp_path):
        store = DurableStateStore(tmp_path)
        store.recover(base_graph=paper_graph)
        server = self.make_server(paper_graph, store)
        server.epoch = 7  # simulate drift between server and durable log
        with pytest.raises(WalError, match="out-of-order"):
            server.apply_updates(batch_for(paper_graph, 0))
        store.close()


class TestSupervisorWiring:
    def options(self, tmp_path) -> dict:
        return dict(
            n_workers=1,
            task_timeout_s=30.0,
            heartbeat_timeout_s=30.0,
            start_timeout_s=120.0,
            max_restarts=3,
            server_options={"theta": THETA, "seed": SEED},
            state_dir=tmp_path / "state",
            snapshot_every=2,
        )

    def test_cold_start_recovery_and_health(self, paper_graph, tmp_path):
        from repro.core.problem import CODQuery

        batches = [batch_for(paper_graph, i) for i in range(3)]
        first = ServingSupervisor(paper_graph, **self.options(tmp_path))
        with first:
            for batch in batches:
                first.submit_updates(batch)
            first.serve([CODQuery(0, 0, 3)], drain_timeout_s=120.0)
            health = first.health()
        assert first.epoch == 3
        assert health["durability"]["recovery"]["epoch"] == 0
        assert health["durability"]["snapshots"] == [2]
        expected_graph = first.graph

        second = ServingSupervisor(paper_graph, **self.options(tmp_path))
        assert second.epoch == 3
        assert second.recovery.snapshot_epoch == 2
        assert second.recovery.replayed_epochs == 1
        assert graph_checksum(second.graph) == graph_checksum(expected_graph)
        with second:
            # Workers bootstrap straight into the recovered epoch.
            answers = second.serve(
                [CODQuery(0, 0, 3)], drain_timeout_s=120.0
            )
            assert answers[0].epoch == 3
            # And the durable log keeps extending from the recovered tip.
            assert second.submit_updates(batch_for(paper_graph, 3)) == 4
            health = second.health()
        assert health["durability"]["recovery"]["replayed_epochs"] == 1
        fleet = health["fleet_metrics"]
        assert fleet["counters"].get("wal.appends", 0) >= 1
        assert fleet["counters"].get("recovery.runs", 0) >= 1
