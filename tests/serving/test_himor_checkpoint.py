"""Crash-safe HIMOR builds: checkpointing, resume, and fingerprint guards.

The load-bearing invariant is **resume-equals-fresh**: a build interrupted
mid-way and resumed from its checkpoint must produce ranks bit-identical
to an uninterrupted build with the same seed.
"""

import numpy as np
import pytest

from repro.core.himor import (
    CHECKPOINT_FORMAT,
    HimorIndex,
    build_fingerprint,
)
from repro.errors import CheckpointError, IndexError_
from repro.influence.arena import sample_arena
from repro.utils.faults import corrupt_file, inject
from repro.utils.persist import atomic_write_json, load_versioned_json

THETA = 3
SEED = 11


def interrupted_build(graph, hierarchy, ckpt, *, after, checkpoint_every=4,
                      exc=RuntimeError):
    """Run a build that dies after ``after`` samples, leaving a checkpoint."""
    with inject(site="himor_sample", after=after, exc=exc):
        with pytest.raises(exc):
            HimorIndex.build(
                graph, hierarchy, theta=THETA, rng=SEED,
                checkpoint_path=ckpt, checkpoint_every=checkpoint_every,
            )
    assert ckpt.exists(), "the interrupted build left no checkpoint"


class TestResumeEqualsFresh:
    def test_resumed_ranks_bit_identical(self, paper_graph, paper_hierarchy,
                                         tmp_path):
        fresh = HimorIndex.build(paper_graph, paper_hierarchy, theta=THETA,
                                 rng=SEED)
        ckpt = tmp_path / "build.ckpt"
        interrupted_build(paper_graph, paper_hierarchy, ckpt, after=13)
        resumed = HimorIndex.build(
            paper_graph, paper_hierarchy, theta=THETA, rng=SEED,
            checkpoint_path=ckpt, checkpoint_every=4,
        )
        assert resumed.resumed_from > 0
        for v in range(paper_graph.n):
            assert np.array_equal(resumed.ranks_of(v), fresh.ranks_of(v))

    def test_checkpoint_removed_after_completion(self, paper_graph,
                                                 paper_hierarchy, tmp_path):
        ckpt = tmp_path / "build.ckpt"
        interrupted_build(paper_graph, paper_hierarchy, ckpt, after=9)
        HimorIndex.build(
            paper_graph, paper_hierarchy, theta=THETA, rng=SEED,
            checkpoint_path=ckpt,
        )
        assert not ckpt.exists()

    def test_resume_skips_already_charged_samples(self, paper_graph,
                                                  paper_hierarchy, tmp_path):
        ckpt = tmp_path / "build.ckpt"
        interrupted_build(paper_graph, paper_hierarchy, ckpt, after=13,
                          checkpoint_every=4)
        payload = load_versioned_json(ckpt, kind=CHECKPOINT_FORMAT)
        # Interrupted at sample 13 with checkpoints every 4: progress 12.
        assert payload["next_sample"] == 12
        resumed = HimorIndex.build(
            paper_graph, paper_hierarchy, theta=THETA, rng=SEED,
            checkpoint_path=ckpt, checkpoint_every=4,
        )
        assert resumed.resumed_from == 12

    def test_fresh_build_with_checkpoint_path_has_resumed_zero(
        self, paper_graph, paper_hierarchy, tmp_path
    ):
        index = HimorIndex.build(
            paper_graph, paper_hierarchy, theta=THETA, rng=SEED,
            checkpoint_path=tmp_path / "build.ckpt",
        )
        assert index.resumed_from == 0


class TestCheckpointRejection:
    def _fresh_ranks(self, graph, hierarchy):
        index = HimorIndex.build(graph, hierarchy, theta=THETA, rng=SEED)
        return [index.ranks_of(v) for v in range(graph.n)]

    def _assert_discards_and_matches_fresh(self, graph, hierarchy, ckpt):
        expected = self._fresh_ranks(graph, hierarchy)
        index = HimorIndex.build(
            graph, hierarchy, theta=THETA, rng=SEED, checkpoint_path=ckpt,
        )
        assert index.resumed_from == 0  # checkpoint was discarded
        for v in range(graph.n):
            assert np.array_equal(index.ranks_of(v), expected[v])

    def test_truncated_checkpoint_discarded(self, paper_graph, paper_hierarchy,
                                            tmp_path):
        ckpt = tmp_path / "build.ckpt"
        interrupted_build(paper_graph, paper_hierarchy, ckpt, after=9)
        corrupt_file(ckpt, mode="truncate")
        self._assert_discards_and_matches_fresh(paper_graph, paper_hierarchy,
                                                ckpt)

    def test_bitflipped_checkpoint_discarded(self, paper_graph, paper_hierarchy,
                                             tmp_path):
        ckpt = tmp_path / "build.ckpt"
        interrupted_build(paper_graph, paper_hierarchy, ckpt, after=9)
        corrupt_file(ckpt, mode="flip", seed=5)
        self._assert_discards_and_matches_fresh(paper_graph, paper_hierarchy,
                                                ckpt)

    def test_other_builds_checkpoint_discarded(self, paper_graph,
                                               paper_hierarchy, tmp_path):
        # A checkpoint taken under a different seed must not be resumed:
        # its sample stream differs, so merging would corrupt the ranks.
        ckpt = tmp_path / "build.ckpt"
        with inject(site="himor_sample", after=9, exc=RuntimeError):
            with pytest.raises(RuntimeError):
                HimorIndex.build(
                    paper_graph, paper_hierarchy, theta=THETA, rng=SEED + 1,
                    checkpoint_path=ckpt, checkpoint_every=4,
                )
        self._assert_discards_and_matches_fresh(paper_graph, paper_hierarchy,
                                                ckpt)

    def test_old_form_checkpoint_discarded(self, paper_graph, paper_hierarchy,
                                           tmp_path):
        # A checkpoint written before charge tables holds its progress as
        # string-keyed buckets; it restarts the build rather than resume.
        ckpt = tmp_path / "build.ckpt"
        interrupted_build(paper_graph, paper_hierarchy, ckpt, after=9)
        payload = load_versioned_json(ckpt, kind=CHECKPOINT_FORMAT)
        keys, counts = payload.pop("charges")
        n = paper_graph.n
        payload["buckets"] = {}
        for key, count in zip(keys, counts):
            payload["buckets"].setdefault(str(key // n), {})[str(key % n)] = count
        atomic_write_json(ckpt, payload, kind=CHECKPOINT_FORMAT)
        self._assert_discards_and_matches_fresh(paper_graph, paper_hierarchy,
                                                ckpt)

    def test_resume_false_ignores_checkpoint(self, paper_graph, paper_hierarchy,
                                             tmp_path):
        ckpt = tmp_path / "build.ckpt"
        interrupted_build(paper_graph, paper_hierarchy, ckpt, after=9)
        index = HimorIndex.build(
            paper_graph, paper_hierarchy, theta=THETA, rng=SEED,
            checkpoint_path=ckpt, resume=False,
        )
        assert index.resumed_from == 0

    def test_inconsistent_progress_rejected(self, paper_graph, paper_hierarchy,
                                            tmp_path):
        from repro.core.himor import _load_checkpoint

        ckpt = tmp_path / "build.ckpt"
        fingerprint = build_fingerprint(
            paper_graph, paper_hierarchy, theta=THETA,
            n_samples=THETA * paper_graph.n, seed=SEED,
        )
        atomic_write_json(ckpt, {
            "fingerprint": fingerprint,
            "next_sample": 10_000,  # beyond the build's sample count
            "n_samples": THETA * paper_graph.n,
            "charges": [[], []],
        }, kind=CHECKPOINT_FORMAT)
        with pytest.raises(CheckpointError, match="inconsistent"):
            _load_checkpoint(ckpt, fingerprint, THETA * paper_graph.n)


class TestFingerprint:
    def test_sensitive_to_every_build_parameter(self, paper_graph,
                                                paper_hierarchy,
                                                two_cliques_graph):
        from repro.hierarchy.nnchain import agglomerative_hierarchy

        base = build_fingerprint(paper_graph, paper_hierarchy, theta=3,
                                 n_samples=30, seed=1)
        assert base == build_fingerprint(paper_graph, paper_hierarchy, theta=3,
                                         n_samples=30, seed=1)
        assert base != build_fingerprint(paper_graph, paper_hierarchy, theta=4,
                                         n_samples=30, seed=1)
        assert base != build_fingerprint(paper_graph, paper_hierarchy, theta=3,
                                         n_samples=31, seed=1)
        assert base != build_fingerprint(paper_graph, paper_hierarchy, theta=3,
                                         n_samples=30, seed=2)
        assert base != build_fingerprint(paper_graph, paper_hierarchy, theta=3,
                                         n_samples=30, seed=None)
        other_hierarchy = agglomerative_hierarchy(two_cliques_graph)
        assert base != build_fingerprint(two_cliques_graph, other_hierarchy,
                                         theta=3, n_samples=30, seed=1)

    def test_non_arena_samples_with_checkpoint_rejected(self, paper_graph,
                                                       paper_hierarchy,
                                                       tmp_path):
        views = list(sample_arena(paper_graph, 6, rng=0))
        with pytest.raises(IndexError_, match="RRArena"):
            HimorIndex.build(
                paper_graph, paper_hierarchy, theta=2, rng=0,
                rr_graphs=views, checkpoint_path=tmp_path / "c.ckpt",
            )
        assert not (tmp_path / "c.ckpt").exists()


class TestSampleStreamGuard:
    """A HIMOR checkpoint or artifact only serves a build over its own
    sample stream: a seeded pool's hashed stream (``"per-sample-fast"``)
    and the server's shared stream (``"stream"``) share seed, theta and
    sample count, but not one sample, so neither may resume or load the
    other's work."""

    @pytest.fixture()
    def cora(self):
        from repro.datasets import load_dataset

        return load_dataset("cora", scale=0.05, seed=SEED).graph

    def _server(self, graph, seeded, index_path=None):
        from repro.core.pool import SharedSamplePool
        from repro.serving import CODServer

        pool = (
            SharedSamplePool(graph, theta=THETA, seed=SEED,
                             per_sample_seeds=True)
            if seeded
            else None
        )
        return CODServer(graph, theta=THETA, seed=SEED, pool=pool,
                         index_path=index_path, checkpoint_every=20)

    def _crash_at_40(self, graph, seeded, index_path):
        with inject(site="himor_sample", after=40, exc=RuntimeError):
            with pytest.raises(RuntimeError):
                self._server(graph, seeded, index_path).warm()
        assert index_path.with_name(index_path.name + ".ckpt").exists()

    def test_seeded_pool_builds_over_the_hashed_stream(self, cora):
        # A seeded pool built without ``fast`` still draws with the
        # hashed kernel, so its index is stamped with that one stream.
        server = self._server(cora, True)
        server.warm()
        assert server.pool.fast
        assert server._index.sample_mode == "per-sample-fast"

    def test_checkpoint_resumes_only_into_its_own_stream(self, cora, tmp_path):
        own = tmp_path / "own.json"
        self._crash_at_40(cora, True, own)
        resumed = self._server(cora, True, own)
        resumed.warm()
        assert resumed._index.resumed_from == 40  # the checkpoint is good

        other = tmp_path / "other.json"
        self._crash_at_40(cora, True, other)
        server = self._server(cora, False, other)
        server.warm()
        assert server._index.resumed_from == 0
        assert server.health()["index_builds_resumed"] == 0
        fresh = self._server(cora, False)
        fresh.warm()
        assert all(
            np.array_equal(a, b)
            for a, b in zip(server._index._ranks, fresh._index._ranks)
        )

    def test_artifact_from_another_stream_is_rebuilt(self, cora, tmp_path):
        path = tmp_path / "index.json"
        self._server(cora, True, path).warm()
        assert HimorIndex.load(path).sample_mode == "per-sample-fast"

        server = self._server(cora, False, path)
        server.warm()
        health = server.health()
        assert health["index_load_failures"] == 1
        assert health["index_rebuilds"] == 1
        assert server._index.sample_mode == "stream"
        fresh = self._server(cora, False)
        fresh.warm()
        assert all(
            np.array_equal(a, b)
            for a, b in zip(server._index._ranks, fresh._index._ranks)
        )
        # The rebuilt artifact replaced the other stream's on disk and
        # now loads cleanly into a server over the same stream.
        reloaded = self._server(cora, False, path)
        reloaded.warm()
        assert reloaded.health()["index_load_failures"] == 0
        assert reloaded.health()["index_rebuilds"] == 0
