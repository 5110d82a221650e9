"""Deterministic fault injection for robustness testing.

Production code registers *sites* — named points in the sampling,
clustering, persistence, and worker layers — by calling :func:`maybe_fail`
with the site name. In normal operation the call is a dictionary lookup on
an empty registry and costs nothing. Tests (and the ``cod serve-sim``
workload replayer) arm sites with :func:`inject`::

    with inject(site="rr_sampling", rate=0.3, exc=InfluenceError, seed=7):
        server.answer(query)          # ~30% of RR draws raise InfluenceError

Injection is deterministic: a plan's failures are driven by its own seeded
``numpy`` generator (for ``rate``-based plans) or by a call counter (for
``count``/``every`` plans), so a failing run replays exactly.

Beyond raising, a plan can take a **process-level action** when it fires —
the chaos vocabulary the supervisor test-suite drives workers with:

``action="raise"``
    Default: raise ``exc`` as before.
``action="kill"``
    ``os._exit(exit_code)`` — an abrupt worker death with no cleanup, no
    ``finally`` blocks, no atexit. Combine with ``after=k`` on the
    ``himor_sample`` site to kill a worker at sample ``k`` of an index
    build.
``action="wedge"``
    Sleep ``delay_s`` seconds (default: effectively forever) while holding
    the call site — a stuck worker the supervisor must detect by deadline
    overrun and kill.
``action="sleep"``
    Sleep ``delay_s`` then continue — degrade without failing (slow
    heartbeats, laggy persistence).

Worker child processes cannot share the parent's ``with inject(...)``
scope, so plans are also expressible as plain-dict *specs* (see
:func:`arm_spec`) that a supervisor serializes into worker bootstrap
config.

Registered sites
----------------
``rr_sampling``
    Once per RR graph drawn by :func:`repro.influence.arena.sample_arena`,
    or once per chunk in the vectorized samplers
    (:mod:`repro.influence.fastsample`).
``lore``
    Once per LORE invocation, before local reclustering
    (:func:`repro.core.lore.lore_chain`).
``clustering``
    Once per agglomerative-hierarchy build
    (:func:`repro.hierarchy.nnchain.agglomerative_hierarchy`).
``himor_build``
    Once per HIMOR index construction (:meth:`HimorIndex.build`).
``himor_sample``
    Once per RR sample traversed during HIMOR construction — the
    fine-grained hook ``kill at sample k`` chaos uses.
``himor_checkpoint_save``
    Before each mid-build checkpoint write.
``himor_load`` / ``himor_save``
    Persistence of the HIMOR index.
``worker_task``
    Once per task a serving worker picks up, before evaluation.
``worker_heartbeat``
    Once per heartbeat tick in a serving worker.
``wal_append``
    After a WAL record is buffered but *before* flush/fsync — a kill here
    leaves a torn tail that recovery must truncate.
``wal_fsync``
    Between flush and fsync of a WAL append — a kill here means the
    record may or may not be durable; either way it was never
    acknowledged.
``wal_compact``
    After the compacted log is staged but before the atomic rename.
``snapshot_save``
    Before a snapshot file is written — a kill here must leave the
    previous snapshot (and the full WAL suffix) recoverable.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Type

import numpy as np

#: Every site name production code is instrumented with. ``inject`` rejects
#: unknown sites so a typo cannot silently disarm a test.
KNOWN_SITES = frozenset(
    {
        "rr_sampling",
        "lore",
        "clustering",
        "himor_build",
        "himor_sample",
        "himor_checkpoint_save",
        "himor_load",
        "himor_save",
        "worker_task",
        "worker_heartbeat",
        "wal_append",
        "wal_fsync",
        "wal_compact",
        "snapshot_save",
    }
)

#: Actions a firing plan may take.
ACTIONS = ("raise", "kill", "wedge", "sleep")


class FaultInjected(Exception):
    """Default exception raised by an armed site with no explicit ``exc``."""


class _Plan:
    """One armed site: decides, deterministically, whether a call fails."""

    def __init__(
        self,
        site: str,
        rate: float,
        exc: "Type[BaseException] | BaseException",
        seed: int,
        count: "int | None",
        after: int,
        message: "str | None",
        action: str = "raise",
        delay_s: "float | None" = None,
        exit_code: int = 73,
    ) -> None:
        self.site = site
        self.rate = float(rate)
        self.exc = exc
        self.count = count
        self.after = int(after)
        self.message = message
        self.action = action
        self.delay_s = delay_s
        self.exit_code = int(exit_code)
        self.calls = 0
        self.failures = 0
        self._rng = np.random.default_rng(seed)

    def should_fail(self) -> bool:
        self.calls += 1
        if self.calls <= self.after:
            return False
        if self.count is not None and self.failures >= self.count:
            return False
        if self.rate >= 1.0:
            fail = True
        elif self.rate <= 0.0:
            fail = False
        else:
            fail = bool(self._rng.random() < self.rate)
        if fail:
            self.failures += 1
        return fail

    def fire(self) -> None:
        """Execute the plan's action (raise / kill / wedge / sleep)."""
        if self.action == "kill":
            os._exit(self.exit_code)
        if self.action == "wedge":
            time.sleep(self.delay_s if self.delay_s is not None else 3600.0)
            return
        if self.action == "sleep":
            time.sleep(self.delay_s if self.delay_s is not None else 0.1)
            return
        self.raise_fault()

    def raise_fault(self) -> None:
        exc = self.exc
        if isinstance(exc, BaseException):
            raise exc
        message = self.message or f"injected fault at site {self.site!r}"
        raise exc(message)


_LOCK = threading.Lock()
_PLANS: dict[str, _Plan] = {}


def maybe_fail(site: str) -> None:
    """Hook point: act iff ``site`` is armed and its plan fires.

    Cheap when nothing is armed (one truthiness check on an empty dict);
    production call sites pay essentially nothing.
    """
    if not _PLANS:
        return
    plan = _PLANS.get(site)
    if plan is not None and plan.should_fail():
        plan.fire()


def arm(
    site: str = "rr_sampling",
    rate: float = 1.0,
    exc: "Type[BaseException] | BaseException" = FaultInjected,
    seed: int = 0,
    count: "int | None" = None,
    after: int = 0,
    message: "str | None" = None,
    action: str = "raise",
    delay_s: "float | None" = None,
    exit_code: int = 73,
) -> _Plan:
    """Arm ``site`` until :func:`disarm` or :func:`reset` (no scope).

    The un-scoped sibling of :func:`inject`, for worker processes that arm
    faults at bootstrap from a serialized spec and never leave the scope.
    Parameters are those of :func:`inject` plus the action controls
    (``action``, ``delay_s``, ``exit_code``) documented in the module
    docstring.
    """
    if site not in KNOWN_SITES:
        raise ValueError(
            f"unknown fault site {site!r}; known sites: {sorted(KNOWN_SITES)}"
        )
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate!r}")
    if action not in ACTIONS:
        raise ValueError(f"unknown action {action!r}; known actions: {ACTIONS}")
    plan = _Plan(
        site, rate, exc, seed, count, after, message,
        action=action, delay_s=delay_s, exit_code=exit_code,
    )
    with _LOCK:
        if site in _PLANS:
            raise RuntimeError(f"fault site {site!r} is already armed")
        _PLANS[site] = plan
    return plan


def disarm(site: str) -> None:
    """Disarm ``site`` if armed (no-op otherwise)."""
    with _LOCK:
        _PLANS.pop(site, None)


def arm_spec(spec: dict) -> _Plan:
    """Arm a site from a plain-dict spec (keys = :func:`arm` kwargs).

    Specs are picklable, so a supervisor can ship a chaos plan into a
    worker child process through its bootstrap config::

        faults.arm_spec({"site": "himor_sample", "after": 40, "action": "kill"})
    """
    return arm(**spec)


@contextmanager
def inject(
    site: str = "rr_sampling",
    rate: float = 1.0,
    exc: "Type[BaseException] | BaseException" = FaultInjected,
    seed: int = 0,
    count: "int | None" = None,
    after: int = 0,
    message: "str | None" = None,
    action: str = "raise",
    delay_s: "float | None" = None,
    exit_code: int = 73,
) -> Iterator[_Plan]:
    """Arm ``site`` for the duration of the ``with`` block.

    Parameters
    ----------
    site:
        One of :data:`KNOWN_SITES`.
    rate:
        Per-call failure probability (1.0 = every call fails).
    exc:
        Exception class to instantiate (with ``message``) or a ready
        exception instance to raise as-is (``action="raise"`` only).
    seed:
        Seed of the plan's private generator; same seed, same failures.
    count:
        Stop failing after this many failures (``None`` = unlimited).
    after:
        Let the first ``after`` calls through before failing any.
    message:
        Message for constructed exceptions.
    action:
        ``"raise"`` (default), ``"kill"``, ``"wedge"``, or ``"sleep"`` —
        see the module docstring.
    delay_s:
        Sleep duration for ``wedge``/``sleep`` actions.
    exit_code:
        Process exit code for the ``kill`` action.

    Yields the plan, whose ``calls``/``failures`` counters tests can
    assert on. Nesting a second plan on the same site is rejected —
    overlapping plans would make failure sequences order-dependent.
    """
    plan = arm(
        site=site, rate=rate, exc=exc, seed=seed, count=count, after=after,
        message=message, action=action, delay_s=delay_s, exit_code=exit_code,
    )
    try:
        yield plan
    finally:
        with _LOCK:
            if _PLANS.get(site) is plan:
                del _PLANS[site]


def corrupt_file(
    path: "str | Path",
    mode: str = "truncate",
    fraction: float = 0.5,
    seed: int = 0,
) -> None:
    """Deterministically damage an on-disk artifact (checkpoint chaos).

    Modes: ``"truncate"`` keeps the first ``fraction`` of the bytes (a
    partial write), ``"empty"`` leaves a zero-byte file, ``"flip"`` XORs
    one seed-chosen byte (silent bit rot), ``"torn-tail"`` cuts the last
    line mid-record (the exact damage a power cut leaves in an
    append-only log). The hardened load path must detect all of them.
    """
    path = Path(path)
    raw = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(raw[: max(1, int(len(raw) * fraction))])
    elif mode == "torn-tail":
        stripped = raw.rstrip(b"\n")
        cut = raw.rfind(b"\n", 0, len(stripped)) + 1  # start of last line
        keep = cut + max(1, (len(stripped) - cut) // 2)
        path.write_bytes(raw[:keep])
    elif mode == "empty":
        path.write_bytes(b"")
    elif mode == "flip":
        if not raw:
            return
        data = bytearray(raw)
        position = int(np.random.default_rng(seed).integers(0, len(data)))
        data[position] ^= 0xFF
        path.write_bytes(bytes(data))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")


def armed_sites() -> list[str]:
    """Names of currently armed sites (diagnostics)."""
    return sorted(_PLANS)


def reset() -> None:
    """Disarm every site (test-suite safety net)."""
    with _LOCK:
        _PLANS.clear()
