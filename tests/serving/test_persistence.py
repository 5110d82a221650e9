"""Hardened-persistence tests: atomicity, versioning, checksums, rebuild.

Covers the versioned envelope HIMOR indexes are saved in
(:mod:`repro.utils.persist`) and the server's auto-rebuild-on-corruption
option.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.himor import HimorIndex
from repro.core.problem import CODQuery
from repro.errors import IndexError_, PersistError
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.serving import CODServer
from repro.utils.faults import corrupt_file, inject
from repro.utils.persist import (
    FORMAT_VERSION,
    atomic_write_json,
    clean_stale_tmp,
    load_versioned_json,
)

DB = 0


@pytest.fixture()
def index(paper_graph, paper_hierarchy) -> HimorIndex:
    return HimorIndex.build(paper_graph, paper_hierarchy, theta=3, rng=0)


class TestEnvelope:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"a": [1, 2, 3]}, kind="demo")
        assert load_versioned_json(path, kind="demo", error_cls=ValueError) == {
            "a": [1, 2, 3]
        }

    def test_envelope_fields_present(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"x": 1}, kind="demo")
        document = json.loads(path.read_text())
        assert document["format"] == "demo"
        assert document["format_version"] == FORMAT_VERSION
        assert len(document["checksum"]) == 64  # sha256 hex

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"x": 1}, kind="demo")
        atomic_write_json(path, {"x": 2}, kind="demo")  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_invalid_json_maps_to_domain_error(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("{ not json }")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_versioned_json(path, kind="demo", error_cls=ValueError)

    def test_unclosed_file_reported_as_truncated(self, tmp_path):
        path = tmp_path / "artifact.json"
        path.write_text("{ not json")  # no closing brace: a partial write
        with pytest.raises(ValueError, match="truncated"):
            load_versioned_json(path, kind="demo", error_cls=ValueError)

    def test_missing_file_maps_to_domain_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read"):
            load_versioned_json(tmp_path / "nope.json", kind="demo",
                                error_cls=ValueError)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"x": 1}, kind="other")
        with pytest.raises(ValueError, match="expected 'demo'"):
            load_versioned_json(path, kind="demo", error_cls=ValueError)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"x": 1}, kind="demo")
        document = json.loads(path.read_text())
        document["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="format version"):
            load_versioned_json(path, kind="demo", error_cls=ValueError)

    def test_tampered_payload_fails_checksum(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"x": 1}, kind="demo")
        document = json.loads(path.read_text())
        document["payload"]["x"] = 2  # bit flip
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="checksum mismatch"):
            load_versioned_json(path, kind="demo", error_cls=ValueError)

    def test_default_error_class_is_persist_error(self, tmp_path):
        with pytest.raises(PersistError):
            load_versioned_json(tmp_path / "nope.json", kind="demo")


class TestTruncationHardening:
    """Satellite: partial writes must be detected before checksum logic."""

    def _written(self, tmp_path):
        path = tmp_path / "artifact.json"
        atomic_write_json(path, {"a": list(range(100))}, kind="demo")
        return path

    def test_empty_file_detected(self, tmp_path):
        path = self._written(tmp_path)
        path.write_bytes(b"")
        with pytest.raises(PersistError, match="truncated or never completed"):
            load_versioned_json(path, kind="demo")

    def test_truncated_tail_detected(self, tmp_path):
        path = self._written(tmp_path)
        corrupt_file(path, mode="truncate", fraction=0.5)
        with pytest.raises(PersistError, match="truncated"):
            load_versioned_json(path, kind="demo")

    def test_one_byte_short_detected(self, tmp_path):
        path = self._written(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])  # lost the closing brace only
        with pytest.raises(PersistError, match="truncated"):
            load_versioned_json(path, kind="demo")

    def test_binary_garbage_detected(self, tmp_path):
        path = self._written(tmp_path)
        path.write_bytes(bytes(range(256)) * 4)
        with pytest.raises(PersistError):
            load_versioned_json(path, kind="demo")

    def test_bit_flips_detected(self, tmp_path):
        path = self._written(tmp_path)
        corrupt_file(path, mode="flip", seed=3)
        with pytest.raises(PersistError):
            load_versioned_json(path, kind="demo")


def _dead_pid() -> int:
    """A pid guaranteed to name no live process (a reaped child's)."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


class TestCleanStaleTmp:
    def test_removes_only_matching_tmp_files(self, tmp_path):
        dead = _dead_pid()
        keep = tmp_path / "artifact.json"
        keep.write_text("{}")
        stale_a = tmp_path / f"artifact.json.{dead}.abc123.tmp"
        stale_a.write_text("partial")
        stale_b = tmp_path / f"other.json.{dead}.x9.tmp"
        stale_b.write_text("partial")
        removed = clean_stale_tmp(tmp_path, prefix="artifact.json")
        assert removed == [stale_a]
        assert keep.exists()
        assert stale_b.exists()  # different artifact's tmp is untouched

    def test_live_writer_tmp_is_never_swept(self, tmp_path):
        live = tmp_path / f"artifact.json.{os.getpid()}.abc123.tmp"
        live.write_text("in flight")
        assert clean_stale_tmp(tmp_path, min_age_s=0.0) == []
        assert live.exists()

    def test_young_untagged_tmp_survives_age_threshold(self, tmp_path):
        young = tmp_path / "legacy.tmp"
        young.write_text("x")
        assert clean_stale_tmp(tmp_path) == []  # default 60s threshold
        assert clean_stale_tmp(tmp_path, min_age_s=0.0) == [young]

    def test_no_prefix_removes_all_dead_tmp(self, tmp_path):
        dead = _dead_pid()
        (tmp_path / f"a.{dead}.x1.tmp").write_text("x")
        (tmp_path / f"b.{dead}.x2.tmp").write_text("x")
        (tmp_path / "real.json").write_text("{}")
        removed = clean_stale_tmp(tmp_path)
        assert len(removed) == 2
        assert (tmp_path / "real.json").exists()

    def test_missing_directory_is_noop(self, tmp_path):
        assert clean_stale_tmp(tmp_path / "nonexistent") == []


class TestHimorPersistence:
    def test_roundtrip(self, index, tmp_path):
        path = tmp_path / "index.json"
        index.save(path)
        loaded = HimorIndex.load(path)
        for v in range(10):
            assert np.array_equal(loaded.ranks_of(v), index.ranks_of(v))

    def test_truncated_file_raises_index_error(self, index, tmp_path):
        path = tmp_path / "index.json"
        index.save(path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(IndexError_):
            HimorIndex.load(path)

    def test_legacy_unversioned_file_rejected_cleanly(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"theta": 1, "n_samples": 10}')
        with pytest.raises(IndexError_, match="not a versioned"):
            HimorIndex.load(path)

    def test_hierarchy_file_rejected_as_index(self, paper_hierarchy, tmp_path):
        # A valid envelope of another kind (a saved hierarchy) is not an index.
        path = tmp_path / "h.json"
        payload = {
            "n_leaves": paper_hierarchy.n_leaves,
            "parent": paper_hierarchy.parents.tolist(),
        }
        atomic_write_json(path, payload, kind="community-hierarchy")
        with pytest.raises(IndexError_):
            HimorIndex.load(path)



def _resave_with_parents(path, edit) -> None:
    """Re-envelope a saved index after ``edit`` changes its parent array.

    The checksum is recomputed, so only the load-time validation of the
    hierarchy stands between the edited payload and a served index.
    """
    payload = load_versioned_json(path, kind=HimorIndex.FORMAT)
    edit(payload["parent"])
    atomic_write_json(path, payload, kind=HimorIndex.FORMAT)


class TestHierarchyPersistence:
    """A saved index carries its hierarchy as a parent array."""

    def test_roundtrip(self, paper_graph, tmp_path):
        hierarchy = agglomerative_hierarchy(paper_graph)
        index = HimorIndex.build(paper_graph, hierarchy, theta=3, rng=0)
        path = tmp_path / "index.json"
        index.save(path)
        loaded = HimorIndex.load(path).hierarchy
        assert loaded.n_leaves == hierarchy.n_leaves
        assert np.array_equal(loaded.parents, hierarchy.parents)
        for q in range(paper_graph.n):
            assert loaded.path_communities(q) == hierarchy.path_communities(q)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda parent: parent.__setitem__(0, 999), id="out-of-range"),
        pytest.param(lambda parent: parent.__setitem__(0, -1), id="two-roots"),
        pytest.param(lambda parent: parent.__setitem__(0, 1), id="leaf-parent"),
    ])
    def test_corruption_raises_index_error(self, index, tmp_path, edit):
        path = tmp_path / "index.json"
        index.save(path)
        _resave_with_parents(path, edit)
        with pytest.raises(IndexError_, match="malformed HIMOR index"):
            HimorIndex.load(path)


class TestServerIndexPersistence:
    @pytest.mark.parametrize("every", [0, -3])
    def test_bad_checkpoint_interval_rejected_at_construction(
        self, paper_graph, tmp_path, every
    ):
        with pytest.raises(ValueError, match="checkpoint_every"):
            CODServer(paper_graph, theta=3, seed=11,
                      index_path=tmp_path / "index.json", checkpoint_every=every)

    def test_checkpointing_off_builds_without_checkpoint(self, paper_graph,
                                                         tmp_path):
        path = tmp_path / "index.json"
        server = CODServer(paper_graph, theta=3, seed=11, index_path=path,
                           checkpoint_every=None)
        assert server.answer(CODQuery(3, DB, 2)).rung == "CODL"
        assert path.exists()
        assert not server._checkpoint_path().exists()

    def test_fresh_build_saved_and_reloaded(self, paper_graph, tmp_path):
        path = tmp_path / "index.json"
        first = CODServer(paper_graph, theta=3, seed=11, index_path=path)
        answer = first.answer(CODQuery(3, DB, 2))
        assert answer.rung == "CODL"
        assert path.exists()
        assert first.health()["index_rebuilds"] == 1

        second = CODServer(paper_graph, theta=3, seed=11, index_path=path)
        answer = second.answer(CODQuery(3, DB, 2))
        assert answer.rung == "CODL"
        assert second.health()["index_rebuilds"] == 0  # loaded, not rebuilt

    def test_corrupt_index_auto_rebuilds(self, paper_graph, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("garbage")
        server = CODServer(paper_graph, theta=3, seed=11, index_path=path,
                           auto_rebuild_index=True)
        answer = server.answer(CODQuery(3, DB, 2))
        assert answer.rung == "CODL"
        assert server.health()["index_load_failures"] == 1
        assert server.health()["index_rebuilds"] == 1
        # The rebuilt index was re-persisted in valid form.
        assert HimorIndex.load(path).hierarchy.n_leaves == paper_graph.n

    def test_malformed_hierarchy_auto_rebuilds(self, paper_graph, index, tmp_path):
        # A well-formed envelope whose parent array is not a tree counts as
        # a failed load, like a corrupt file, instead of escaping start-up.
        path = tmp_path / "index.json"
        index.save(path)
        _resave_with_parents(path, lambda parent: parent.__setitem__(0, 999))
        server = CODServer(paper_graph, theta=3, seed=11, index_path=path,
                           auto_rebuild_index=True)
        answer = server.answer(CODQuery(3, DB, 2))
        assert answer.rung == "CODL"
        assert server.health()["index_load_failures"] == 1
        assert server.health()["index_rebuilds"] == 1

    def test_corrupt_index_without_rebuild_degrades(self, paper_graph, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("garbage")
        server = CODServer(paper_graph, theta=3, seed=11, index_path=path,
                           auto_rebuild_index=False)
        answer = server.answer(CODQuery(3, DB, 2))
        assert answer.rung == "CODL-"
        assert any("CODL:" in note for note in answer.notes)

    def test_mismatched_index_auto_rebuilds(self, paper_graph, two_cliques_graph,
                                            tmp_path):
        path = tmp_path / "index.json"
        donor = CODServer(two_cliques_graph, theta=2, seed=1, index_path=path)
        donor.answer(CODQuery(0, 0, 2))
        server = CODServer(paper_graph, theta=3, seed=11, index_path=path)
        answer = server.answer(CODQuery(3, DB, 2))
        assert answer.rung == "CODL"
        assert server.health()["index_load_failures"] == 1

    def test_injected_load_fault_degrades(self, paper_graph, index, tmp_path):
        path = tmp_path / "index.json"
        index.save(path)
        server = CODServer(paper_graph, theta=3, seed=11, index_path=path,
                           auto_rebuild_index=False)
        with inject(site="himor_load", rate=1.0, exc=IndexError_):
            answer = server.answer(CODQuery(3, DB, 2))
        assert answer.rung == "CODL-"
