"""Fault-tolerant serving layer over the COD pipelines.

:class:`CODServer` answers queries under explicit execution budgets
(wall-clock deadline + RR-sample budget) and degrades gracefully through
the ladder CODL → CODL- → CODU → ``Refused`` instead of raising.

:class:`ServingSupervisor` scales that to N server workers in child
processes with admission control (bounded queue, priority-aware load
shedding), crash/wedge detection, capped-backoff restarts, and an
exactly-one-terminal-answer guarantee per admitted query.

Every answer goes through :meth:`CODServer.answer` and every graph
update through :meth:`CODServer.apply_updates`; with a
:class:`~repro.core.pool.SharedSamplePool` attached, queries share one
RR-sample arena and their answers do not depend on query order. See
``docs/API.md`` ("Serving & fault tolerance", "Supervision &
operations", and "Pooled serving") for the full contract.
"""

from repro.serving.breaker import CircuitBreaker
from repro.serving.budget import BackoffPolicy, ExecutionBudget
from repro.serving.durability import (
    DurableStateStore,
    RecoveryManager,
    RecoveryResult,
    SnapshotStore,
    WriteAheadLog,
)
from repro.serving.queue import (
    PRIORITY_BACKGROUND,
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    Admission,
    AdmissionQueue,
)
from repro.serving.server import CODServer, ServedAnswer
from repro.serving.supervisor import ChaosSchedule, ServingSupervisor
from repro.serving.worker import UpdateDirective

__all__ = [
    "Admission",
    "AdmissionQueue",
    "BackoffPolicy",
    "CODServer",
    "ChaosSchedule",
    "CircuitBreaker",
    "DurableStateStore",
    "ExecutionBudget",
    "RecoveryManager",
    "RecoveryResult",
    "SnapshotStore",
    "WriteAheadLog",
    "PRIORITY_BACKGROUND",
    "PRIORITY_BATCH",
    "PRIORITY_INTERACTIVE",
    "ServedAnswer",
    "ServingSupervisor",
    "UpdateDirective",
]
