"""Dynamic-graph support (the paper's Section IV-B discussion).

The paper notes that real graphs are dynamic, that hierarchies and
influence estimates both shift under updates, and that the compressed
HIMOR computation "cannot be updated efficiently" — leaving dynamic
maintenance as future work. This package holds the update side of that
maintenance; :meth:`repro.serving.CODServer.apply_updates` applies each
batch exactly, epoch by epoch:

* edge insertions/deletions and per-node attribute flips as first-class
  update objects (:mod:`repro.dynamic.updates`), applied as atomic
  conflict-checked batches;
* epoch-versioned batch bookkeeping (:mod:`repro.dynamic.log`):
  :class:`~repro.dynamic.log.UpdateBatch` / an append-only
  :class:`~repro.dynamic.log.UpdateLog` whose epoch ``e`` graph is the
  seed graph with batches ``1..e`` applied — the replayable history the
  serving layer's incremental-repair machinery and its rebuild oracle
  both run from.
"""

from repro.dynamic.log import UpdateBatch, UpdateLog, as_batch, read_batches
from repro.dynamic.updates import (
    AttrUpdate,
    EdgeUpdate,
    GraphUpdate,
    apply_updates,
    touched_attributes,
    touched_nodes,
)

__all__ = [
    "AttrUpdate",
    "EdgeUpdate",
    "GraphUpdate",
    "UpdateBatch",
    "UpdateLog",
    "apply_updates",
    "as_batch",
    "read_batches",
    "touched_attributes",
    "touched_nodes",
]
