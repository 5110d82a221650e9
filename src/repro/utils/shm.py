"""Typed shared-memory segments: the zero-copy transport under the fleet.

A *segment* is one named POSIX shared-memory object holding a set of
numpy arrays behind a small versioned, checksummed header::

    [magic 8B][meta_len u32][meta_crc u32][meta JSON][payload arrays...]

The metadata JSON records the segment ``kind`` (e.g. ``"rr-arena"``),
format version, owner pid, per-array geometry (name, dtype, shape,
offset into the payload) and a CRC of the payload bytes. Readers verify
all of it on :func:`attach_segment`, so a truncated, foreign, or
bit-flipped segment fails loudly (:class:`~repro.errors.ShmError`)
instead of surfacing as wrong answers deep inside an evaluator.

Lifecycle rules (the part ``multiprocessing.shared_memory`` gets wrong
for long-lived servers):

* **Ownership is explicit.** The creating process owns the segment and
  is responsible for unlinking it; attaching processes only ever map it
  read-only. Python's ``resource_tracker`` must not manage any of our
  segments — its automatic cleanup unlinks a segment as soon as any
  attaching process exits (the well-known CPython tracker bug), which
  would yank arenas out from under a half-alive fleet. A created
  segment is unregistered right after creation; an attach maps the
  segment itself and never registers at all, because the fleet's
  processes share one tracker whose name set would drop one of two
  concurrent attachers' registrations and fail the second unregister.
* **Refcounted handles.** Within one process, handles to the same name
  share one mapping; :meth:`SharedSegment.close` drops the mapping on
  last close, and an *owner's* last close also unlinks the name
  (unlink-on-last-close). :meth:`SharedSegment.destroy` unlinks
  eagerly — what a supervisor calls at shutdown.
* **Crash-safe sweeping.** Segment names embed the owner pid
  (``cod-shm.<pid>.<token>.<kind>``), mirroring the pid-tagged staging
  files of :func:`repro.utils.persist.clean_stale_tmp`:
  :func:`sweep_stale_segments` unlinks a segment only when its owner is
  provably dead, so a crashed supervisor's leak is reclaimed on the
  next start without ever racing a live one.

POSIX semantics make rotation safe: unlinking removes the *name* while
existing mappings stay valid until closed, so a supervisor can publish
epoch N+1 segments and unlink epoch N's while workers still hold the
old mapping mid-query.
"""

from __future__ import annotations

import json
import mmap
import os
import re
import secrets
import struct
import threading
import zlib
from multiprocessing import shared_memory
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from repro.errors import ShmError
from repro.utils.persist import _pid_alive

#: Every segment this module creates is named ``cod-shm.<pid>.<token>.<kind>``.
SEGMENT_PREFIX = "cod-shm"

#: Default location of POSIX shared-memory objects on Linux.
SHM_DIR = "/dev/shm"

FORMAT_VERSION = 1

_MAGIC = b"CODSHM1\n"
_FIXED = len(_MAGIC) + 8  # magic + meta_len u32 + meta_crc u32
_ALIGN = 64

_SEG_PID_RE = re.compile(rf"^{re.escape(SEGMENT_PREFIX)}\.(\d+)\.")


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _slug(kind: str) -> str:
    return re.sub(r"[^A-Za-z0-9_-]+", "-", kind).strip("-") or "segment"


def default_segment_name(kind: str) -> str:
    """A fresh pid-tagged segment name for a ``kind`` artifact."""
    return (
        f"{SEGMENT_PREFIX}.{os.getpid()}.{secrets.token_hex(4)}.{_slug(kind)}"
    )


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Tell the resource tracker to forget a segment we just created —
    we own its lifecycle.

    Without this, the tracker unlinks the segment when the creating
    process's tracker shuts down, independent of our unlink-on-last-close.
    The name is fresh and pid-tagged, so no other process registers it.
    """
    try:  # pragma: no cover - tracker internals vary across versions
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # noqa: BLE001 — best-effort; worst case is a warning
        pass


class _AttachedMemory:
    """A mapping of an existing POSIX segment the resource tracker never
    sees — the part of :class:`~multiprocessing.shared_memory.SharedMemory`
    an attacher uses (``buf``, ``size``, ``close``, ``_name``), without
    its register-on-open."""

    __slots__ = ("_name", "_mmap", "buf", "size")

    def __init__(self, name: str) -> None:
        self._name = "/" + name
        fd = shared_memory._posixshmem.shm_open(self._name, os.O_RDWR)
        try:
            self.size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, self.size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        """Unmap; raises ``BufferError`` while numpy views are alive."""
        if self.buf is not None:
            self.buf.release()
            self.buf = None
        if self._mmap is not None:
            self._mmap.close()
            self._mmap = None


def _open_existing(name: str) -> "shared_memory.SharedMemory | _AttachedMemory":
    """Map an existing segment without registering it with the tracker.

    Off POSIX the standard class never registers, so it is used as is.
    """
    if getattr(shared_memory, "_posixshmem", None) is None:  # pragma: no cover
        return shared_memory.SharedMemory(name=name, create=False)
    return _AttachedMemory(name)


def _quiet_unlink(shm: shared_memory.SharedMemory) -> None:
    """Unlink the name without a second resource-tracker unregister.

    ``SharedMemory.unlink`` also unregisters the name with the tracker,
    but none of our names is registered (:func:`_untrack` ran at
    creation; attaches never register) — the stray message makes the
    tracker process print a ``KeyError`` traceback on exit.
    """
    posixshmem = getattr(shared_memory, "_posixshmem", None)
    try:
        if posixshmem is not None:
            posixshmem.shm_unlink(shm._name)
        else:  # pragma: no cover - non-POSIX fallback
            shm.unlink()
    except FileNotFoundError:
        pass


class _Mapping:
    """One process-wide mapping of a named segment, shared by handles."""

    __slots__ = ("shm", "refs", "owner", "unlinked")

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self.shm = shm
        self.refs = 0
        self.owner = owner
        self.unlinked = False


_lock = threading.Lock()
_mappings: dict[str, _Mapping] = {}
#: Mappings whose buffers were still exported (live numpy views) at close
#: time; kept alive so the interpreter never warns from ``__del__`` — they
#: are retried on later closes and at :func:`close_all_segments`.
_zombies: list[_Mapping] = []
_registry_pid = os.getpid()


def _registry() -> dict[str, _Mapping]:
    """The per-process mapping registry, reset across ``fork``.

    A forked child inherits the parent's mappings but must never close
    or unlink them — they are the parent's to manage — so the child
    starts from an empty registry and re-attaches by name.
    """
    global _mappings, _zombies, _registry_pid
    if os.getpid() != _registry_pid:
        _mappings = {}
        _zombies = []
        _registry_pid = os.getpid()
    return _mappings


def _release(mapping: _Mapping) -> None:
    """Close a mapping's buffer, tolerating still-exported views."""
    try:
        mapping.shm.close()
    except BufferError:
        # numpy views into the buffer are still alive; parking the
        # mapping keeps the SharedMemory object referenced so its
        # __del__ never runs against live exports.
        _zombies.append(mapping)


def _reap_zombies() -> None:
    for mapping in list(_zombies):
        try:
            mapping.shm.close()
        except BufferError:
            continue
        _zombies.remove(mapping)


class SharedSegment:
    """A handle on one mapped segment (see module docstring).

    ``arrays`` maps array names to **read-only** numpy views over the
    mapping — zero-copy for owner and attachers alike. ``extra`` is the
    free-form metadata dict the creator stored alongside the arrays.
    """

    __slots__ = ("name", "kind", "extra", "arrays", "nbytes", "owner",
                 "_mapping", "_closed")

    def __init__(
        self,
        name: str,
        kind: str,
        extra: dict,
        arrays: dict[str, np.ndarray],
        nbytes: int,
        owner: bool,
        mapping: _Mapping,
    ) -> None:
        self.name = name
        self.kind = kind
        self.extra = extra
        self.arrays = arrays
        self.nbytes = int(nbytes)
        self.owner = owner
        self._mapping = mapping
        self._closed = False

    def close(self) -> None:
        """Drop this handle (idempotent).

        The process-wide mapping is released on last close; if this
        process owns the segment, the last close also unlinks the name.
        """
        if self._closed:
            return
        self._closed = True
        with _lock:
            registry = _registry()
            mapping = self._mapping
            if registry.get(self.name) is not mapping:
                return  # forked copy or an already-replaced mapping
            mapping.refs -= 1
            if mapping.refs > 0:
                return
            del registry[self.name]
            if mapping.owner and not mapping.unlinked:
                _quiet_unlink(mapping.shm)
                mapping.unlinked = True
            _release(mapping)
            _reap_zombies()

    def unlink(self) -> None:
        """Remove the segment's name now (idempotent; owner's call).

        Existing mappings — ours and other processes' — stay valid until
        closed; only new attaches fail. This is what makes epoch
        rotation safe.
        """
        with _lock:
            mapping = self._mapping
            if mapping.unlinked:
                return
            _quiet_unlink(mapping.shm)
            mapping.unlinked = True

    def destroy(self) -> None:
        """Unlink the name and drop this handle — supervisor shutdown."""
        self.unlink()
        self.close()

    def __enter__(self) -> "SharedSegment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        role = "owner" if self.owner else "reader"
        return (
            f"SharedSegment({self.name!r}, kind={self.kind!r}, "
            f"arrays={len(self.arrays)}, bytes={self.nbytes}, {role})"
        )


def _layout(arrays: "Mapping[str, np.ndarray]", kind: str, extra: dict):
    """Compute the header + per-array geometry for ``arrays``."""
    specs = []
    payload_crc = 0
    rel = 0
    prepared: list[np.ndarray] = []
    for name, array in arrays.items():
        arr = np.ascontiguousarray(array)
        prepared.append(arr)
        rel = _align(rel)
        specs.append(
            {
                "name": str(name),
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": rel,
                "nbytes": int(arr.nbytes),
            }
        )
        payload_crc = zlib.crc32(arr.tobytes(), payload_crc)
        rel += arr.nbytes
    meta = {
        "format": str(kind),
        "format_version": FORMAT_VERSION,
        "owner_pid": os.getpid(),
        "payload_crc": payload_crc,
        "arrays": specs,
        "extra": dict(extra),
    }
    meta_json = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload_start = _align(_FIXED + len(meta_json))
    total = payload_start + rel
    return meta, meta_json, payload_start, total, prepared, specs


def _views(
    shm: shared_memory.SharedMemory, specs: Iterable[dict], payload_start: int
) -> dict[str, np.ndarray]:
    views: dict[str, np.ndarray] = {}
    for spec in specs:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(int(s) for s in spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        view = np.frombuffer(
            shm.buf,
            dtype=dtype,
            count=count,
            offset=payload_start + int(spec["offset"]),
        ).reshape(shape)
        view.setflags(write=False)
        views[spec["name"]] = view
    return views


def create_segment(
    arrays: "Mapping[str, np.ndarray]",
    kind: str,
    extra: "dict | None" = None,
    name: "str | None" = None,
) -> SharedSegment:
    """Publish ``arrays`` into a new named segment and return the handle.

    The returned handle's ``arrays`` are read-only views over the
    mapping, so an owner can *adopt* them and drop its private copies.
    The caller (owner) is responsible for :meth:`SharedSegment.destroy`
    (or last :meth:`~SharedSegment.close`) — nothing is cleaned up
    automatically, by design: a leak is reclaimed by
    :func:`sweep_stale_segments` once the owner is dead, never before.
    """
    name = name or default_segment_name(kind)
    meta, meta_json, payload_start, total, prepared, specs = _layout(
        arrays, kind, dict(extra or {})
    )
    try:
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(total, 1)
        )
    except FileExistsError as exc:
        raise ShmError(
            f"shared segment {name!r} already exists; pick a fresh name "
            f"or sweep stale segments first"
        ) from exc
    except OSError as exc:
        raise ShmError(f"cannot create shared segment {name!r}: {exc}") from exc
    _untrack(shm)
    buf = shm.buf
    buf[:len(_MAGIC)] = _MAGIC
    struct.pack_into(
        "<II", buf, len(_MAGIC), len(meta_json), zlib.crc32(meta_json)
    )
    buf[_FIXED:_FIXED + len(meta_json)] = meta_json
    for arr, spec in zip(prepared, specs):
        if arr.nbytes == 0:
            continue
        offset = payload_start + spec["offset"]
        dst = np.frombuffer(
            buf, dtype=arr.dtype, count=arr.size, offset=offset
        ).reshape(arr.shape)
        dst[...] = arr
    with _lock:
        registry = _registry()
        mapping = _Mapping(shm, owner=True)
        mapping.refs = 1
        registry[name] = mapping
    return SharedSegment(
        name=name,
        kind=meta["format"],
        extra=dict(meta["extra"]),
        arrays=_views(shm, specs, payload_start),
        nbytes=total,
        owner=True,
        mapping=mapping,
    )


def attach_segment(name: str, kind: "str | None" = None) -> SharedSegment:
    """Map an existing segment read-only, verifying its header.

    ``kind`` (when given) must match the creator's — attaching a graph
    segment as an arena fails with a clear message instead of
    misparsing. Raises :class:`~repro.errors.ShmError` on a missing
    segment, foreign magic, unsupported version, checksum mismatch
    (header or payload), or geometry that does not fit the mapping.
    """
    with _lock:
        registry = _registry()
        mapping = registry.get(name)
        if mapping is not None:
            mapping.refs += 1
            shm = mapping.shm
        else:
            try:
                shm = _open_existing(name)
            except FileNotFoundError as exc:
                raise ShmError(
                    f"shared segment {name!r} does not exist (owner gone or "
                    f"already swept?)"
                ) from exc
            except OSError as exc:
                raise ShmError(
                    f"cannot attach shared segment {name!r}: {exc}"
                ) from exc
            mapping = _Mapping(shm, owner=False)
            mapping.refs = 1
            registry[name] = mapping

    def reject(reason: str) -> ShmError:
        handle = SharedSegment(name, "?", {}, {}, 0, False, mapping)
        handle.close()
        return ShmError(f"shared segment {name!r} is unusable: {reason}")

    buf = shm.buf
    if shm.size < _FIXED or bytes(buf[:len(_MAGIC)]) != _MAGIC:
        raise reject("bad magic (not a cod-shm segment)")
    meta_len, meta_crc = struct.unpack_from("<II", buf, len(_MAGIC))
    if _FIXED + meta_len > shm.size:
        raise reject(
            f"header claims {meta_len} metadata bytes but the mapping "
            f"holds {shm.size}"
        )
    meta_json = bytes(buf[_FIXED:_FIXED + meta_len])
    if zlib.crc32(meta_json) != meta_crc:
        raise reject("metadata checksum mismatch (corrupt header)")
    meta = json.loads(meta_json)
    if meta.get("format_version") != FORMAT_VERSION:
        raise reject(
            f"format version {meta.get('format_version')!r}; this reader "
            f"supports {FORMAT_VERSION}"
        )
    if kind is not None and meta.get("format") != kind:
        raise reject(
            f"holds a {meta.get('format')!r} artifact, expected {kind!r}"
        )
    payload_start = _align(_FIXED + meta_len)
    payload_crc = 0
    for spec in meta["arrays"]:
        begin = payload_start + int(spec["offset"])
        end = begin + int(spec["nbytes"])
        if end > shm.size:
            raise reject(
                f"array {spec['name']!r} ends at byte {end} but the "
                f"mapping holds {shm.size} (truncated segment)"
            )
        payload_crc = zlib.crc32(bytes(buf[begin:end]), payload_crc)
    if payload_crc != meta.get("payload_crc"):
        raise reject("payload checksum mismatch (corrupt or torn segment)")
    return SharedSegment(
        name=name,
        kind=meta["format"],
        extra=dict(meta.get("extra", {})),
        arrays=_views(shm, meta["arrays"], payload_start),
        nbytes=payload_start + sum(
            int(s["nbytes"]) for s in meta["arrays"]
        ),
        owner=False,
        mapping=mapping,
    )


def segment_exists(name: str, shm_dir: "str | Path" = SHM_DIR) -> bool:
    """Whether a segment name currently exists (without mapping it)."""
    path = Path(shm_dir) / name
    if Path(shm_dir).is_dir():
        return path.exists()
    try:  # pragma: no cover - non-/dev/shm platforms
        shm = _open_existing(name)
    except OSError:
        return False
    shm.close()
    return True


def list_segments(
    prefix: str = SEGMENT_PREFIX, shm_dir: "str | Path" = SHM_DIR
) -> list[dict]:
    """Our segments currently present, as ``{name, owner_pid, bytes, alive}``.

    The ops surface behind the OPERATIONS.md leak playbook: ``alive`` is
    whether the embedded owner pid still exists (``None`` = unknowable).
    """
    directory = Path(shm_dir)
    found: list[dict] = []
    if not directory.is_dir():
        return found
    for entry in sorted(directory.glob(f"{prefix}.*")):
        match = _SEG_PID_RE.match(entry.name)
        if match is None:
            continue
        pid = int(match.group(1))
        try:
            size = entry.stat().st_size
        except OSError:
            continue
        found.append(
            {
                "name": entry.name,
                "owner_pid": pid,
                "bytes": int(size),
                "alive": _pid_alive(pid),
            }
        )
    return found


def sweep_stale_segments(
    prefix: str = SEGMENT_PREFIX, shm_dir: "str | Path" = SHM_DIR
) -> list[str]:
    """Unlink segments whose owner process is provably dead.

    The shared-memory analogue of
    :func:`repro.utils.persist.clean_stale_tmp`: a segment is removed
    only when the pid embedded in its name no longer exists — a live
    owner's segments (this process's included) are never touched, so
    the sweep is safe to run from any process at any time. Returns the
    names removed. Call it at supervisor start and on worker respawn to
    reclaim leaks left by SIGKILLed incarnations.
    """
    directory = Path(shm_dir)
    removed: list[str] = []
    if not directory.is_dir():
        return removed
    for entry in directory.glob(f"{prefix}.*"):
        match = _SEG_PID_RE.match(entry.name)
        if match is None:
            continue
        if _pid_alive(int(match.group(1))) is not False:
            continue  # owner (possibly) alive: not ours to reclaim
        try:
            entry.unlink()
        except OSError:
            continue
        removed.append(entry.name)
    return removed


def close_all_segments() -> None:
    """Release every mapping this process still holds (test teardown)."""
    with _lock:
        registry = _registry()
        for name, mapping in list(registry.items()):
            del registry[name]
            if mapping.owner and not mapping.unlinked:
                _quiet_unlink(mapping.shm)
                mapping.unlinked = True
            _release(mapping)
        _reap_zombies()
