"""Tests for the typed shared-memory segment layer (`repro.utils.shm`).

Covers the single-process surface (round-trips, read-only views,
refcounted lifecycle, header validation) and the two cross-process
contracts everything in serving rests on: a child can attach a parent's
segment by name and read identical bytes, and a segment stranded by a
SIGKILLed owner is reclaimed by :func:`sweep_stale_segments` while live
owners' segments are never touched.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ShmError
from repro.utils.shm import (
    SEGMENT_PREFIX,
    SharedSegment,
    attach_segment,
    close_all_segments,
    create_segment,
    default_segment_name,
    list_segments,
    segment_exists,
    sweep_stale_segments,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    close_all_segments()


def make_arrays() -> dict:
    return {
        "a": np.arange(7, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 5),
        "c": np.array([[1, 2], [3, 4]], dtype=np.int32),
    }


class TestRoundTrip:
    def test_create_then_attach_bit_identical(self):
        arrays = make_arrays()
        with create_segment(arrays, kind="test", extra={"tag": 1}) as owner:
            reader = attach_segment(owner.name, kind="test")
            assert reader.extra == {"tag": 1}
            for name, original in arrays.items():
                np.testing.assert_array_equal(reader.arrays[name], original)
                assert reader.arrays[name].dtype == original.dtype
            reader.close()

    def test_views_are_read_only(self):
        with create_segment(make_arrays(), kind="test") as segment:
            for view in segment.arrays.values():
                assert not view.flags.writeable
                with pytest.raises(ValueError):
                    view[...] = 0

    def test_empty_arrays_round_trip(self):
        arrays = {
            "empty": np.empty(0, dtype=np.int64),
            "tail": np.arange(3, dtype=np.int64),
            "also_empty": np.empty((0, 4), dtype=np.float64),
        }
        with create_segment(arrays, kind="test") as owner:
            reader = attach_segment(owner.name)
            assert reader.arrays["empty"].shape == (0,)
            assert reader.arrays["also_empty"].shape == (0, 4)
            np.testing.assert_array_equal(
                reader.arrays["tail"], arrays["tail"]
            )
            reader.close()

    def test_only_empty_arrays(self):
        with create_segment(
            {"nothing": np.empty(0, dtype=np.int64)}, kind="test"
        ) as owner:
            reader = attach_segment(owner.name)
            assert reader.arrays["nothing"].size == 0
            reader.close()

    def test_name_embeds_pid_and_kind(self):
        name = default_segment_name("rr-arena")
        assert name.startswith(f"{SEGMENT_PREFIX}.{os.getpid()}.")
        assert name.endswith(".rr-arena")


class TestLifecycle:
    def test_owner_close_unlinks(self):
        segment = create_segment(make_arrays(), kind="test")
        name = segment.name
        assert segment_exists(name)
        segment.close()
        assert not segment_exists(name)

    def test_in_process_attach_shares_mapping_and_refcounts(self):
        owner = create_segment(make_arrays(), kind="test")
        reader = attach_segment(owner.name)
        # The owner's close alone must not tear the mapping down while a
        # reader handle is live...
        owner.close()
        np.testing.assert_array_equal(
            reader.arrays["a"], np.arange(7, dtype=np.int64)
        )
        # ...but the name is reclaimed once the last handle closes
        # (unlink-on-last-close, owner semantics carried by the mapping).
        reader.close()
        assert not segment_exists(owner.name)

    def test_close_is_idempotent(self):
        segment = create_segment(make_arrays(), kind="test")
        segment.close()
        segment.close()
        segment.destroy()

    def test_destroy_unlinks_immediately(self):
        owner = create_segment(make_arrays(), kind="test")
        reader = attach_segment(owner.name)
        owner.destroy()
        assert not segment_exists(owner.name)
        # The reader's established mapping stays valid (POSIX unlink
        # removes the name, not the memory) — this is epoch rotation.
        np.testing.assert_array_equal(
            reader.arrays["a"], np.arange(7, dtype=np.int64)
        )
        reader.close()

    def test_name_collision_rejected(self):
        name = default_segment_name("test")
        with create_segment(make_arrays(), kind="test", name=name):
            with pytest.raises(ShmError, match="exists"):
                create_segment(make_arrays(), kind="test", name=name)


class TestValidation:
    def test_attach_missing_raises(self):
        with pytest.raises(ShmError, match="does not exist"):
            attach_segment(default_segment_name("never-created"))

    def test_kind_mismatch_rejected(self):
        with create_segment(make_arrays(), kind="rr-arena") as segment:
            with pytest.raises(ShmError, match="expected 'attributed-graph'"):
                attach_segment(segment.name, kind="attributed-graph")

    def test_foreign_segment_rejected(self):
        from multiprocessing import shared_memory

        from repro.utils.shm import _untrack

        raw = shared_memory.SharedMemory(
            name=default_segment_name("foreign"), create=True, size=256
        )
        _untrack(raw)
        try:
            raw.buf[:8] = b"NOTMAGIC"
            with pytest.raises(ShmError, match="magic"):
                attach_segment(raw._name.lstrip("/"))
        finally:
            raw.close()
            try:
                shared_memory.SharedMemory(raw._name.lstrip("/")).unlink()
            except FileNotFoundError:
                pass

    def test_payload_corruption_detected(self):
        segment = create_segment(make_arrays(), kind="test")
        name = segment.name
        # Flip a payload byte behind the checksum's back via the raw
        # mapping (the public views are read-only by design).
        raw = segment._mapping.shm
        raw.buf[segment.nbytes - 1] ^= 0xFF
        with pytest.raises(ShmError, match="checksum"):
            attach_segment(name)
        raw.buf[segment.nbytes - 1] ^= 0xFF
        attach_segment(name).close()
        segment.destroy()


class TestSweep:
    @staticmethod
    def _strand_segment(name_queue) -> None:
        # Child: create a pid-tagged segment and die without any cleanup
        # — the stranded-segment scenario sweeping exists for.
        segment = create_segment(
            {"x": np.arange(4, dtype=np.int64)}, kind="stranded"
        )
        name_queue.put(segment.name)
        name_queue.close()
        name_queue.join_thread()  # flush before dying: os._exit skips it
        os._exit(0)

    def test_sweeps_dead_owner_segment_only(self):
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        name_queue = ctx.Queue()
        child = ctx.Process(target=self._strand_segment, args=(name_queue,))
        child.start()
        stranded = name_queue.get(timeout=30)
        child.join(timeout=30)
        assert segment_exists(stranded)
        with create_segment(make_arrays(), kind="test") as live:
            listed = {
                entry["name"]: entry
                for entry in list_segments()
            }
            assert listed[stranded]["alive"] is False
            assert listed[live.name]["alive"] is True
            swept = sweep_stale_segments()
            assert stranded in swept
            assert not segment_exists(stranded)
            # A live owner's segment is never reclaimed by the sweep.
            assert live.name not in swept
            assert segment_exists(live.name)


class TestTwoProcess:
    @staticmethod
    def _check_attached(name, result_queue) -> None:
        try:
            reader = attach_segment(name, kind="xproc")
            ok = (
                bool(
                    np.array_equal(
                        reader.arrays["payload"],
                        np.arange(64, dtype=np.int64) * 3,
                    )
                )
                and not reader.arrays["payload"].flags.writeable
                and reader.extra == {"epoch": 7}
            )
            reader.close()
            result_queue.put(ok)
        except Exception as exc:  # pragma: no cover - failure reporting
            result_queue.put(repr(exc))

    def test_child_process_attaches_and_reads(self):
        ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        arrays = {"payload": np.arange(64, dtype=np.int64) * 3}
        with create_segment(
            arrays, kind="xproc", extra={"epoch": 7}
        ) as segment:
            result_queue = ctx.Queue()
            child = ctx.Process(
                target=self._check_attached,
                args=(segment.name, result_queue),
            )
            child.start()
            outcome = result_queue.get(timeout=30)
            child.join(timeout=30)
            assert outcome is True, outcome


class TestResourceTracker:
    """An attach must never talk to the resource tracker: the fleet's
    processes share one tracker, whose name set drops one of two
    concurrent attachers' registrations, so the second unregister failed
    with a ``KeyError`` inside the tracker."""

    @staticmethod
    def _attach_and_report(name, calls, result_queue) -> None:
        try:
            reader = attach_segment(name, kind="tracked")
            ok = bool(np.array_equal(reader.arrays["x"], np.arange(5)))
            reader.close()
            result_queue.put((ok, [c for c in calls if name in c[1]]))
        except Exception as exc:  # pragma: no cover - failure reporting
            result_queue.put((repr(exc), []))

    def test_attach_neither_registers_nor_unregisters(self, monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork to inherit the patched tracker")
        from multiprocessing import resource_tracker

        calls: list = []
        with create_segment(
            {"x": np.arange(5, dtype=np.int64)}, kind="tracked"
        ) as segment:
            # Patched after creation; a forked child inherits the patch
            # and has an empty mapping registry, so its attach opens the
            # segment for real.
            monkeypatch.setattr(
                resource_tracker, "register",
                lambda name, rtype: calls.append(("register", name, rtype)),
            )
            monkeypatch.setattr(
                resource_tracker, "unregister",
                lambda name, rtype: calls.append(("unregister", name, rtype)),
            )
            ctx = multiprocessing.get_context("fork")
            result_queue = ctx.Queue()
            child = ctx.Process(
                target=self._attach_and_report,
                args=(segment.name, calls, result_queue),
            )
            child.start()
            ok, tracker_calls = result_queue.get(timeout=30)
            child.join(timeout=30)
        assert ok is True, ok
        assert tracker_calls == []
