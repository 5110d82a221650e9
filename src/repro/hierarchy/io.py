"""Serialization for community hierarchies.

Hierarchies are expensive to build on large graphs, and the HIMOR workflow
precomputes them offline; these helpers persist a hierarchy as a compact
JSON document (parent array + leaf count) inside the hardened envelope of
:mod:`repro.utils.persist`: writes are atomic (temp file + ``os.replace``)
and the document embeds a format version plus a SHA-256 checksum that
:func:`load_hierarchy` verifies — corruption raises
:class:`~repro.errors.HierarchyError`, never a raw ``json.JSONDecodeError``.
"""

from __future__ import annotations

from pathlib import Path

from repro.errors import HierarchyError
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.utils.faults import maybe_fail
from repro.utils.persist import atomic_write_json, load_versioned_json

#: Envelope format name; see :mod:`repro.utils.persist`.
HIERARCHY_FORMAT = "community-hierarchy"


def save_hierarchy(hierarchy: CommunityHierarchy, path: str | Path) -> None:
    """Atomically write ``hierarchy`` (``n_leaves`` + parent array)."""
    maybe_fail("hierarchy_save")
    payload = {
        "n_leaves": hierarchy.n_leaves,
        "parent": hierarchy.parents.tolist(),
    }
    atomic_write_json(path, payload, kind=HIERARCHY_FORMAT)


def load_hierarchy(path: str | Path) -> CommunityHierarchy:
    """Load a hierarchy written by :func:`save_hierarchy` (verified)."""
    maybe_fail("hierarchy_load")
    payload = load_versioned_json(path, kind=HIERARCHY_FORMAT, error_cls=HierarchyError)
    try:
        n_leaves = int(payload["n_leaves"])
        parent = [int(p) for p in payload["parent"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise HierarchyError(f"malformed hierarchy JSON in {path}: {exc}") from exc
    return CommunityHierarchy.from_parents(n_leaves, parent)
