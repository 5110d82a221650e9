"""Edge/attribute update objects and batch application.

Graphs in this library are immutable, so updates produce a *new*
:class:`AttributedGraph`; :func:`apply_updates` validates the batch
against the current graph (no double-inserts, no phantom deletes, no
conflicting operations on the same edge or node-attribute pair inside
one batch), then edits only what the batch touches
(:meth:`AttributedGraph.edited`): the touched endpoints' adjacency rows
and degrees, the touched nodes' attribute sets and the touched
attributes' carrier arrays. Every other row is shared with the input
graph, so a batch costs a few flat copies (the row list, the degree
array) plus work on what it touches, not a Python pass over the whole
graph.

A batch is **atomic and order-free**: either every update applies or a
:class:`GraphError` is raised and the input graph is untouched. To keep
batches order-free, two updates in the same batch may not touch the same
edge key or the same ``(node, attribute)`` pair — an insert+delete of
one edge in a single batch used to be an order-sensitive net no-op and
is now rejected up front (split it across two batches if the transient
state is intended).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from repro.errors import GraphError
from repro.graph.graph import AttributedGraph


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge insertion (``add=True``) or deletion (``add=False``)."""

    u: int
    v: int
    add: bool = True

    def key(self) -> tuple[int, int]:
        """The normalized ``(min, max)`` endpoint pair."""
        return (min(self.u, self.v), max(self.u, self.v))


@dataclass(frozen=True)
class AttrUpdate:
    """Add (``add=True``) or remove one attribute value on one node."""

    node: int
    attribute: int
    add: bool = True

    def key(self) -> tuple[int, int]:
        """The ``(node, attribute)`` pair this update touches."""
        return (int(self.node), int(self.attribute))


GraphUpdate = Union[EdgeUpdate, AttrUpdate]


def touched_nodes(updates: Iterable[GraphUpdate]) -> set[int]:
    """Nodes whose *adjacency* an update batch changes (edge endpoints).

    Attribute updates do not appear here: RR sampling is topology-only,
    so they can never invalidate an RR sample (the incremental-repair
    machinery keys off this set).
    """
    out: set[int] = set()
    for update in updates:
        if isinstance(update, EdgeUpdate):
            out.update(update.key())
    return out


def touched_attributes(updates: Iterable[GraphUpdate]) -> set[int]:
    """Attribute values whose carrier sets an update batch changes."""
    return {u.attribute for u in updates if isinstance(u, AttrUpdate)}


def _check_conflicts(updates: "list[GraphUpdate]") -> None:
    """Reject batches that touch one edge / node-attribute pair twice."""
    seen_edges: set[tuple[int, int]] = set()
    seen_attrs: set[tuple[int, int]] = set()
    for update in updates:
        if isinstance(update, EdgeUpdate):
            key = update.key()
            if key in seen_edges:
                raise GraphError(
                    f"conflicting updates for edge {key} in one batch: a "
                    "batch may touch each edge at most once (split "
                    "order-dependent sequences across batches)"
                )
            seen_edges.add(key)
        elif isinstance(update, AttrUpdate):
            key = update.key()
            if key in seen_attrs:
                raise GraphError(
                    f"conflicting updates for node-attribute pair {key} in "
                    "one batch: a batch may touch each pair at most once"
                )
            seen_attrs.add(key)
        else:
            raise GraphError(
                f"unknown update type {type(update).__name__!r}; expected "
                "EdgeUpdate or AttrUpdate"
            )


def apply_updates(
    graph: AttributedGraph, updates: Iterable[GraphUpdate]
) -> AttributedGraph:
    """Apply an update batch, returning the new graph.

    Raises :class:`GraphError` on inserting an existing edge, deleting a
    missing one, self-loops, adding an attribute a node already carries,
    removing one it does not, or intra-batch conflicts (two updates on
    the same edge / node-attribute pair) — silent no-ops would hide
    upstream bugs in update feeds. A weighted graph also raises: the
    updates carry no edge weights.

    Conflicts are checked first; after that no two updates touch the same
    edge or node-attribute pair, so each update is checked against
    ``graph`` itself (``has_edge``, the node's attribute set), and the
    first invalid one in batch order raises.
    """
    updates = list(updates)
    _check_conflicts(updates)
    edges: list[tuple[int, int, bool]] = []
    attributes: list[tuple[int, int, bool]] = []
    for update in updates:
        if isinstance(update, EdgeUpdate):
            key = update.key()
            if key[0] == key[1]:
                raise GraphError(f"self-loop update ({key[0]}, {key[1]})")
            if not (0 <= key[0] and key[1] < graph.n):
                raise GraphError(f"update endpoint out of range: {key}")
            present = graph.has_edge(*key)
            if update.add and present:
                raise GraphError(f"edge {key} already exists")
            if not update.add and not present:
                raise GraphError(f"edge {key} does not exist")
            edges.append((int(key[0]), int(key[1]), bool(update.add)))
        else:
            node, attribute = update.key()
            if not 0 <= node < graph.n:
                raise GraphError(f"update node out of range: {node}")
            if attribute < 0:
                raise GraphError(f"negative attribute value: {attribute}")
            carried = attribute in graph.attributes_of(node)
            if update.add and carried:
                raise GraphError(
                    f"node {node} already carries attribute {attribute}"
                )
            if not update.add and not carried:
                raise GraphError(
                    f"node {node} does not carry attribute {attribute}"
                )
            attributes.append((node, attribute, bool(update.add)))
    return graph.edited(edges, attributes)
