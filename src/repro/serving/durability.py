"""Crash-consistent state store: WAL + epoch snapshots + recovery.

The serving layer's unit of mutation is the epoch — one
:class:`~repro.dynamic.log.UpdateBatch` applied atomically. This module
makes epochs *durable*:

* :class:`WriteAheadLog` — an append-only JSONL log with CRC-framed
  records, fsynced (file **and** parent directory) before an epoch is
  acknowledged. On open it detects a **torn tail** — the partial last
  record a power cut leaves behind — and truncates exactly the
  unacknowledged suffix; a CRC failure *inside* the acknowledged prefix
  is real corruption and raises :class:`~repro.errors.WalError` instead.
* :class:`SnapshotStore` — periodic full-state snapshots (graph topology
  + attribute tables + optional manifests) written through the
  checksummed atomic envelope of :mod:`repro.utils.persist`. Corrupt
  snapshots are **quarantined** (renamed ``*.quarantine``), never
  deleted, so no recovery decision ever destroys evidence.
* :class:`RecoveryManager` — on startup picks the newest valid snapshot,
  replays the WAL suffix through the per-epoch replay machinery, and
  proves the result against the ``graph_sha`` each WAL record carries
  (:func:`~repro.core.himor.graph_checksum`) before anything serves.
* :class:`DurableStateStore` — the facade the server/supervisor wire in:
  ``recover()`` once at cold start, ``append()`` per epoch (ack *after*
  fsync), ``maybe_snapshot()`` on a cadence, with snapshot-gated log
  compaction lagged one snapshot behind so the newest snapshot corrupting
  never strands an epoch.

Durability contract, stated once: an epoch is **acknowledged** exactly
when ``append`` returns. A crash before that point may lose the epoch
(the caller never observed it); a crash after must not. Compaction only
discards WAL records already covered by the *oldest retained* snapshot,
so every acknowledged epoch is reachable from some valid snapshot even
if the newest one is damaged.

On-disk layout under a state dir::

    state/
      wal.jsonl                    # CRC-framed records, one per epoch
      snapshots/epoch-00000012.json
      snapshots/epoch-00000008.json.quarantine   # corrupt, kept as evidence

WAL record format (one JSON object per line)::

    {"epoch": 12, "batch": {...UpdateBatch wire...},
     "graph_sha": "<edge-set checksum after applying>", "crc32": "1a2b3c4d"}

``crc32`` frames the rest of the record (CRC-32 of the canonical JSON of
the record minus the ``crc32`` key), so a torn write is detected even
when the partial line happens to be valid JSON. ``graph_sha`` is the
edge-set checksum — attribute-only epochs leave it unchanged, so the
replay proof is exact for topology and best-effort for attributes (the
snapshot envelope's SHA-256 covers attributes in full).

A compacted WAL starts with a **floor marker** ``{"floor": E, "crc32":
...}`` recording that epochs ``<= E`` were dropped; contiguity is then
enforced from ``E + 1``.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.himor import graph_checksum
from repro.dynamic.log import UpdateBatch
from repro.dynamic.updates import apply_updates
from repro.errors import PersistError, RecoveryError, WalError
from repro.graph.graph import AttributedGraph
from repro.obs.registry import MetricsRegistry
from repro.utils import faults
from repro.utils.persist import (
    atomic_write_json,
    clean_stale_tmp,
    fsync_dir,
    load_versioned_json,
)

#: Envelope ``kind`` of snapshot files (verified on load).
SNAPSHOT_KIND = "cod-state-snapshot"

#: Default WAL file name inside a state directory.
WAL_NAME = "wal.jsonl"

#: Snapshot subdirectory name inside a state directory.
SNAPSHOT_DIR = "snapshots"

_SNAPSHOT_RE = re.compile(r"^epoch-(\d{8})\.json$")


def _crc_frame(body: dict) -> str:
    """CRC-32 (hex) over the canonical JSON of ``body`` minus ``crc32``."""
    canon = json.dumps(
        {k: v for k, v in body.items() if k != "crc32"},
        sort_keys=True, separators=(",", ":"),
    )
    return f"{zlib.crc32(canon.encode('utf-8')) & 0xFFFFFFFF:08x}"


def graph_payload(graph: AttributedGraph) -> dict:
    """JSON-able full-state form of a graph (topology + attributes)."""
    return {
        "n": graph.n,
        "edges": [[int(u), int(v)] for u, v in graph.edges()],
        "attributes": {
            str(v): sorted(int(a) for a in graph.attributes_of(v))
            for v in range(graph.n)
            if graph.attributes_of(v)
        },
    }


def graph_from_payload(payload: dict) -> AttributedGraph:
    """Rebuild a graph from :func:`graph_payload` output."""
    n = int(payload["n"])
    edges = [(int(u), int(v)) for u, v in payload["edges"]]
    raw_attrs = payload.get("attributes", {})
    dense = [raw_attrs.get(str(v), []) for v in range(n)]
    return AttributedGraph(n, edges, attributes=dense)


# --------------------------------------------------------------------- WAL


@dataclass(frozen=True)
class WalRecord:
    """One acknowledged epoch as parsed back from the log."""

    epoch: int
    batch: UpdateBatch
    graph_sha: "str | None" = None


class WriteAheadLog:
    """CRC-framed, fsync-on-append epoch log with torn-tail repair.

    Opening the log scans it completely: the longest valid prefix is
    kept, a torn tail (trailing unparseable/CRC-failing lines with no
    valid record after them) is truncated in place, and any damage
    *inside* the prefix — a bad line followed by a good one, or a
    contiguity gap — raises :class:`~repro.errors.WalError` because an
    acknowledged record can only be missing through real corruption.
    Its ``wal.*`` counters live in ``metrics`` (else a private registry).
    """

    def __init__(self, path: "str | Path",
                 metrics: "MetricsRegistry | None" = None) -> None:
        self.path = Path(path)
        self.metrics = metrics or MetricsRegistry()
        self._appends = self.metrics.counter("wal.appends")
        self._fsyncs = self.metrics.counter("wal.fsyncs")
        self._compactions = self.metrics.counter("wal.compactions")
        self.floor = 0
        self.records: list[WalRecord] = []
        self.truncated_records = 0
        created = not self.path.exists()
        if not created:
            self._scan_and_repair()
        self._fh = open(self.path, "ab")
        if created:
            # The file's directory entry must survive a crash too.
            fsync_dir(self.path.parent or ".")
        self.metrics.counter("wal.truncated_records").inc(self.truncated_records)

    # ------------------------------------------------------------- open/scan

    def _scan_and_repair(self) -> None:
        raw = self.path.read_bytes()
        offset = 0
        bad_offset: "int | None" = None
        bad_count = 0
        bad_reason = ""
        for lineno, line in enumerate(raw.split(b"\n"), start=1):
            line_start = offset
            offset += len(line) + 1
            if not line.strip():
                continue
            record, reason = self._parse_line(line, lineno)
            if record is None:
                if bad_offset is None:
                    bad_offset = line_start
                    bad_reason = reason
                bad_count += 1
                continue
            if bad_offset is not None:
                # A CRC-valid record after a bad line: the damage is
                # inside the acknowledged prefix, not a torn tail.
                raise WalError(
                    f"{self.path}: corrupt record inside acknowledged "
                    f"prefix ({bad_reason}); a valid record follows at "
                    f"line {lineno} — refusing to truncate acknowledged "
                    f"state"
                )
            if record == "floor":
                continue
            expected = self.epoch + 1
            if record.epoch != expected:
                raise WalError(
                    f"{self.path}:{lineno}: epoch {record.epoch} breaks "
                    f"contiguity (expected {expected})"
                )
            self.records.append(record)
        if bad_offset is not None:
            # Torn tail: truncate exactly the unacknowledged suffix.
            with open(self.path, "r+b") as fh:
                fh.truncate(bad_offset)
                fh.flush()
                os.fsync(fh.fileno())
            self.truncated_records = bad_count

    def _parse_line(self, line: bytes, lineno: int):
        """Parse one WAL line → ``(record_or_None, reason)``.

        Structural errors in a CRC-*valid* record are not torn writes —
        the frame proves the writer completed the line — so they raise.
        Contiguity and bad-prefix ordering are the scan loop's job.
        """
        try:
            body = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return None, f"line {lineno}: invalid JSON ({exc})"
        if not isinstance(body, dict) or "crc32" not in body:
            return None, f"line {lineno}: not a CRC-framed record"
        if _crc_frame(body) != body["crc32"]:
            return None, f"line {lineno}: CRC mismatch"
        if "floor" in body:
            if lineno != 1 or self.records:
                raise WalError(
                    f"{self.path}:{lineno}: floor marker after records"
                )
            self.floor = int(body["floor"])
            return "floor", ""
        try:
            epoch = int(body["epoch"])
            batch = UpdateBatch.from_wire(body["batch"])
        except Exception as exc:
            raise WalError(
                f"{self.path}:{lineno}: CRC-valid record is malformed: {exc}"
            ) from exc
        record = WalRecord(epoch=epoch, batch=batch,
                           graph_sha=body.get("graph_sha"))
        return record, ""

    # ---------------------------------------------------------------- state

    @property
    def epoch(self) -> int:
        """The last acknowledged epoch (``floor`` when the log is empty)."""
        return self.records[-1].epoch if self.records else self.floor

    def __len__(self) -> int:
        return len(self.records)

    # --------------------------------------------------------------- append

    def append(self, batch: UpdateBatch, graph_sha: "str | None" = None) -> int:
        """Durably append one epoch; the returned epoch is *acknowledged*.

        Ordering is write → flush → fsync → ack: when this returns, the
        record survives power loss. Any failure along the way raises
        :class:`~repro.errors.WalError` and the epoch was never
        acknowledged (a torn partial line is repaired on next open).
        """
        epoch = self.epoch + 1
        body: dict = {"epoch": epoch, "batch": batch.to_wire()}
        if graph_sha is not None:
            body["graph_sha"] = graph_sha
        body["crc32"] = _crc_frame(body)
        line = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        tail = self._fh.tell()
        try:
            self._fh.write(line)
            faults.maybe_fail("wal_append")
            self._fh.flush()
            faults.maybe_fail("wal_fsync")
            os.fsync(self._fh.fileno())
        except BaseException as exc:
            # The epoch was never acknowledged: scrub the partial write so
            # this handle cannot leak it later (a later flush would append
            # a duplicate-epoch line) — crashes are repaired on reopen.
            try:
                self._fh.flush()
            except OSError:
                pass
            try:
                self._fh.truncate(tail)
                self._fh.seek(tail)
            except OSError:
                self._fh.close()  # can't scrub: refuse further appends
            if isinstance(exc, WalError):
                raise
            raise WalError(
                f"WAL append for epoch {epoch} failed before "
                f"acknowledgement: {exc}"
            ) from exc
        self.records.append(
            WalRecord(epoch=epoch, batch=batch, graph_sha=graph_sha)
        )
        self._appends.inc()
        self._fsyncs.inc()
        return epoch

    # -------------------------------------------------------------- compact

    def compact(self, through_epoch: int) -> int:
        """Drop records with ``epoch <= through_epoch`` (snapshot-gated).

        The caller guarantees a valid snapshot at (or past)
        ``through_epoch``; compaction itself is atomic (staged + renamed)
        so a crash mid-compact leaves the old log intact. Returns the
        number of records dropped.
        """
        through_epoch = min(int(through_epoch), self.epoch)
        if through_epoch <= self.floor:
            return 0
        kept = [r for r in self.records if r.epoch > through_epoch]
        dropped = len(self.records) - len(kept)
        fd, tmp_name = tempfile.mkstemp(
            prefix=f"{self.path.name}.{os.getpid()}.", suffix=".tmp",
            dir=self.path.parent or ".",
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                marker: dict = {"floor": through_epoch}
                marker["crc32"] = _crc_frame(marker)
                fh.write(json.dumps(marker, sort_keys=True) + "\n")
                for record in kept:
                    body: dict = {"epoch": record.epoch,
                                  "batch": record.batch.to_wire()}
                    if record.graph_sha is not None:
                        body["graph_sha"] = record.graph_sha
                    body["crc32"] = _crc_frame(body)
                    fh.write(json.dumps(body, sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            faults.maybe_fail("wal_compact")
            self._fh.close()
            os.replace(tmp_name, self.path)
            fsync_dir(self.path.parent or ".")
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        finally:
            if self._fh.closed:
                self._fh = open(self.path, "ab")
        self.floor = through_epoch
        self.records = kept
        self._compactions.inc()
        return dropped

    def close(self) -> None:
        """Close the append handle (the log stays valid on disk)."""
        if not self._fh.closed:
            self._fh.close()


# --------------------------------------------------------------- snapshots


class SnapshotStore:
    """Epoch snapshots through the checksummed atomic envelope.

    A snapshot is the *full* state at an epoch — graph topology,
    attribute tables, and an optional manifest (HIMOR/pool descriptors)
    — so recovery from it needs no history at all. Corrupt snapshots are
    quarantined by rename, never deleted: the bytes stay on disk for a
    human to inspect, and the loader never trips over them twice. Its
    ``snapshot.*`` instruments live in ``metrics`` (else a private
    registry).
    """

    def __init__(self, directory: "str | Path", keep: int = 2,
                 metrics: "MetricsRegistry | None" = None) -> None:
        self.directory = Path(directory)
        self.keep = max(1, int(keep))
        self.metrics = metrics or MetricsRegistry()
        self._saves = self.metrics.counter("snapshot.saves")
        self._epoch = self.metrics.gauge("snapshot.epoch")
        self._seconds = self.metrics.histogram("snapshot.seconds")
        self._pruned = self.metrics.counter("snapshot.pruned")
        self._quarantines = self.metrics.counter("snapshot.quarantined")
        self.quarantined: list[Path] = []

    def _path_for(self, epoch: int) -> Path:
        return self.directory / f"epoch-{int(epoch):08d}.json"

    def epochs(self) -> list[int]:
        """Epochs with a (non-quarantined) snapshot file, ascending."""
        if not self.directory.is_dir():
            return []
        found = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    # ----------------------------------------------------------------- save

    def save(self, graph: AttributedGraph, epoch: int,
             manifest: "dict | None" = None) -> Path:
        """Write the snapshot for ``epoch`` and prune older ones."""
        start = time.perf_counter()
        self.directory.mkdir(parents=True, exist_ok=True)
        faults.maybe_fail("snapshot_save")
        payload = {
            "epoch": int(epoch),
            "graph_sha": graph_checksum(graph),
            "graph": graph_payload(graph),
            "manifest": manifest or {},
        }
        path = self._path_for(epoch)
        atomic_write_json(path, payload, kind=SNAPSHOT_KIND)
        self._prune()
        self._saves.inc()
        self._epoch.set(int(epoch))
        self._seconds.record(time.perf_counter() - start)
        return path

    def _prune(self) -> None:
        epochs = self.epochs()
        for epoch in epochs[: -self.keep]:
            try:
                self._path_for(epoch).unlink()
            except OSError:
                continue
            self._pruned.inc()

    # ----------------------------------------------------------------- load

    def latest(self) -> "tuple[int, AttributedGraph, dict] | None":
        """Newest snapshot that loads *and* verifies, quarantining failures.

        Verification is two-layer: the persistence envelope's SHA-256
        (whole payload), then :func:`graph_checksum` recomputed over the
        rebuilt graph against the stored ``graph_sha`` — proving the
        reconstruction, not just the bytes.
        """
        for epoch in reversed(self.epochs()):
            path = self._path_for(epoch)
            try:
                payload = load_versioned_json(path, kind=SNAPSHOT_KIND)
                graph = graph_from_payload(payload["graph"])
                if int(payload["epoch"]) != epoch:
                    raise PersistError(
                        f"{path}: names epoch {epoch} but payload says "
                        f"{payload['epoch']}"
                    )
                if graph_checksum(graph) != payload["graph_sha"]:
                    raise PersistError(
                        f"{path}: rebuilt graph fails its stored checksum"
                    )
            except (PersistError, KeyError, TypeError, ValueError) as exc:
                self._quarantine(path, exc)
                continue
            return epoch, graph, dict(payload.get("manifest") or {})
        return None

    def _quarantine(self, path: Path, exc: Exception) -> None:
        target = path.with_name(path.name + ".quarantine")
        try:
            os.replace(path, target)
            fsync_dir(path.parent or ".")
        except OSError:
            return
        self.quarantined.append(target)
        self._quarantines.inc()


# ---------------------------------------------------------------- recovery


@dataclass
class RecoveryResult:
    """What a cold start recovered, and the proof it carries."""

    graph: AttributedGraph
    epoch: int
    graph_sha: str
    snapshot_epoch: "int | None" = None
    replayed_epochs: int = 0
    truncated_records: int = 0
    quarantined: "list[str]" = field(default_factory=list)
    seconds: float = 0.0
    #: The WAL suffix replayed past the snapshot — handed to the
    #: supervisor so respawned workers and oracles see the same batches.
    replayed: "list[WalRecord]" = field(default_factory=list)

    def describe(self) -> str:
        """One human line for logs/CLI output."""
        source = (
            f"snapshot epoch {self.snapshot_epoch}"
            if self.snapshot_epoch is not None else "base graph"
        )
        extras = []
        if self.truncated_records:
            extras.append(f"{self.truncated_records} torn record(s) truncated")
        if self.quarantined:
            extras.append(f"{len(self.quarantined)} snapshot(s) quarantined")
        tail = f" ({'; '.join(extras)})" if extras else ""
        return (
            f"recovered epoch {self.epoch} from {source} + "
            f"{self.replayed_epochs} replayed epoch(s) in "
            f"{self.seconds:.3f}s{tail}"
        )


class RecoveryManager:
    """Cold-start recovery: newest valid snapshot + WAL suffix replay.

    The invariants it enforces, in order:

    1. never *lose* an acknowledged epoch — the WAL suffix past the
       chosen snapshot must be contiguous to the current tip;
    2. never *serve* an unacknowledged epoch — torn WAL tails are
       truncated before replay, so the recovered tip is exactly the last
       acknowledged epoch;
    3. never serve an *unproven* state — every replayed epoch is checked
       against its record's ``graph_sha``, and the final graph's
       checksum is recomputed and returned.
    """

    def __init__(self, state_dir: "str | Path",
                 metrics: "MetricsRegistry | None" = None) -> None:
        self.state_dir = Path(state_dir)
        self.metrics = metrics or MetricsRegistry()

    def recover(
        self, base_graph: "AttributedGraph | None" = None
    ) -> "tuple[RecoveryResult, WriteAheadLog]":
        """Recover serveable state, returning it with the opened WAL.

        ``base_graph`` is the epoch-0 graph, used when no snapshot
        exists yet (first boot, or every snapshot quarantined with an
        uncompacted WAL). Raises :class:`~repro.errors.RecoveryError`
        when no proven state is reachable.
        """
        start = time.perf_counter()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        snapshot_dir = self.state_dir / SNAPSHOT_DIR
        clean_stale_tmp(self.state_dir)
        clean_stale_tmp(snapshot_dir)

        wal = WriteAheadLog(self.state_dir / WAL_NAME, metrics=self.metrics)
        snapshots = SnapshotStore(snapshot_dir, metrics=self.metrics)
        loaded = snapshots.latest()

        if loaded is not None:
            snapshot_epoch, graph, _manifest = loaded
        elif base_graph is not None:
            snapshot_epoch, graph = None, base_graph
        else:
            wal.close()
            raise RecoveryError(
                f"{self.state_dir}: no valid snapshot and no base graph — "
                f"nothing to recover from"
            )
        epoch = snapshot_epoch or 0

        first_needed = epoch + 1
        if wal.floor >= first_needed and wal.floor > epoch:
            wal.close()
            raise RecoveryError(
                f"{self.state_dir}: WAL is compacted through epoch "
                f"{wal.floor} but recovery starts at epoch {epoch} — "
                f"epochs {first_needed}..{wal.floor} are unreachable "
                f"(newest usable snapshot too old or quarantined)"
            )

        replayed: list[WalRecord] = []
        try:
            for record in wal.records:
                if record.epoch <= epoch:
                    continue
                if record.epoch != epoch + 1:
                    raise RecoveryError(
                        f"{wal.path}: WAL gap — have epoch {epoch}, next "
                        f"record is epoch {record.epoch}"
                    )
                graph = apply_updates(graph, record.batch.updates)
                if (record.graph_sha is not None
                        and graph_checksum(graph) != record.graph_sha):
                    raise RecoveryError(
                        f"{wal.path}: replayed epoch {record.epoch} fails "
                        f"its recorded graph checksum — refusing to serve "
                        f"unproven state"
                    )
                epoch = record.epoch
                replayed.append(record)
        except RecoveryError:
            wal.close()
            raise
        except Exception as exc:
            wal.close()
            raise RecoveryError(
                f"{wal.path}: WAL replay failed at epoch {epoch + 1}: {exc}"
            ) from exc

        seconds = time.perf_counter() - start
        result = RecoveryResult(
            graph=graph,
            epoch=epoch,
            graph_sha=graph_checksum(graph),
            snapshot_epoch=snapshot_epoch,
            replayed_epochs=len(replayed),
            truncated_records=wal.truncated_records,
            quarantined=[str(p) for p in snapshots.quarantined],
            seconds=seconds,
            replayed=replayed,
        )
        self.metrics.counter("recovery.runs").inc()
        self.metrics.gauge("recovery.replayed_epochs").set(len(replayed))
        self.metrics.gauge("recovery.epoch").set(epoch)
        self.metrics.histogram("recovery.seconds").record(seconds)
        return result, wal


# ------------------------------------------------------------------ facade


class DurableStateStore:
    """The serving layer's one handle on durability.

    Lifecycle: construct → :meth:`recover` once (opens the WAL, picks
    snapshot, replays) → :meth:`append` per epoch → :meth:`maybe_snapshot`
    after each applied epoch → :meth:`close` on shutdown. ``append``
    before ``recover`` is a programming error and raises.
    """

    def __init__(
        self,
        state_dir: "str | Path",
        snapshot_every: "int | None" = None,
        keep_snapshots: int = 2,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.snapshot_every = (
            None if not snapshot_every else max(1, int(snapshot_every))
        )
        self.metrics = metrics or MetricsRegistry()
        self.snapshots = SnapshotStore(
            self.state_dir / SNAPSHOT_DIR, keep=keep_snapshots,
            metrics=self.metrics,
        )
        self._wal: "WriteAheadLog | None" = None
        self.last_recovery: "RecoveryResult | None" = None

    # ------------------------------------------------------------ lifecycle

    def recover(
        self, base_graph: "AttributedGraph | None" = None
    ) -> RecoveryResult:
        """Run crash recovery and open the store for appends."""
        manager = RecoveryManager(self.state_dir, metrics=self.metrics)
        result, wal = manager.recover(base_graph=base_graph)
        self.snapshots.quarantined.extend(
            Path(p) for p in result.quarantined
        )
        self._wal = wal
        self.last_recovery = result
        return result

    def close(self) -> None:
        """Release the WAL handle; all acknowledged state is on disk."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    @property
    def epoch(self) -> int:
        """Last acknowledged epoch (requires :meth:`recover` first)."""
        return self._require_wal().epoch

    def _require_wal(self) -> WriteAheadLog:
        if self._wal is None:
            raise WalError(
                "DurableStateStore used before recover() — recovery is the "
                "only entry point, even on an empty state dir"
            )
        return self._wal

    # ------------------------------------------------------------- mutation

    def append(self, batch: UpdateBatch,
               graph_sha: "str | None" = None) -> int:
        """Durably log one epoch; returns the acknowledged epoch number."""
        return self._require_wal().append(batch, graph_sha=graph_sha)

    def snapshot(self, graph: AttributedGraph, epoch: int,
                 manifest: "dict | None" = None) -> Path:
        """Snapshot now, then compact the WAL behind the *oldest* retained
        snapshot — one snapshot of lag, so the newest corrupting never
        makes an acknowledged epoch unreachable."""
        path = self.snapshots.save(graph, epoch, manifest=manifest)
        retained = self.snapshots.epochs()
        # Compact only behind the *oldest* of >= 2 retained snapshots:
        # with a single snapshot there is no lag, and compacting through
        # it would make every epoch unreachable if it later corrupts.
        if len(retained) >= 2:
            self._require_wal().compact(retained[0])
        return path

    def maybe_snapshot(self, graph: AttributedGraph, epoch: int,
                       manifest: "dict | None" = None) -> "Path | None":
        """Snapshot iff the cadence says this epoch is due."""
        if (self.snapshot_every is None or epoch <= 0
                or epoch % self.snapshot_every != 0):
            return None
        return self.snapshot(graph, epoch, manifest=manifest)
