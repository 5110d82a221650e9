"""Induced subgraph extraction.

Communities in the paper are *induced* subgraphs of ``g`` (Section II-A).
:func:`induced_subgraph` materializes one together with the node relabeling
in both directions, which downstream code (independent evaluation, baseline
verification, local reclustering) needs to translate results back to the
parent graph's ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import GraphError, NodeNotFoundError
from repro.graph.graph import AttributedGraph


@dataclass(frozen=True)
class SubgraphView:
    """An induced subgraph plus the id translation tables.

    Attributes
    ----------
    graph:
        The induced subgraph over relabeled ids ``0..len(members)-1``.
    to_parent:
        ``to_parent[i]`` is the parent-graph id of subgraph node ``i``.
    to_sub:
        Mapping from parent-graph id to subgraph id (only for members).
    """

    graph: AttributedGraph
    to_parent: np.ndarray
    to_sub: dict[int, int]

    def parent_ids(self, sub_nodes: Sequence[int]) -> list[int]:
        """Translate subgraph node ids back to parent ids."""
        return self.to_parent[np.asarray(sub_nodes, dtype=np.int64)].tolist()


def induced_subgraph(graph: AttributedGraph, members: Sequence[int]) -> SubgraphView:
    """Extract the unweighted subgraph induced by ``members``.

    The attribute-weighted ``g_l`` induced on a node set comes from
    :func:`repro.graph.weighting.attribute_weighted_subgraph` instead.

    Parameters
    ----------
    graph:
        Parent graph.
    members:
        Node ids to keep; duplicates are rejected to surface caller bugs.
    """
    return _induce(graph, members)


def _induce(graph: AttributedGraph, members: Sequence[int], weigh=None) -> SubgraphView:
    """The subgraph induced by ``members``, optionally weighted.

    Every member's neighbor row is gathered, filtered to members through a
    position array and relabeled; members are numbered in parent-id order,
    so the relabeled rows stay sorted. ``weigh(u, v)``, when given, maps
    the kept edges' parent endpoint arrays to their weights.
    """
    ids = np.fromiter(members, dtype=np.int64)
    ordered = np.unique(ids)
    if len(ordered) != len(ids):
        raise GraphError("members contains duplicate node ids")
    if not len(ordered):
        raise GraphError("cannot induce a subgraph on an empty node set")
    for node in (int(ordered[0]), int(ordered[-1])):
        if not 0 <= node < graph.n:
            raise NodeNotFoundError(node, graph.n)
    k = len(ordered)
    position = np.full(graph.n, -1, dtype=np.int64)
    position[ordered] = np.arange(k, dtype=np.int64)
    degrees = graph.degrees[ordered]
    rows = np.repeat(np.arange(k, dtype=np.int64), degrees)
    u = np.repeat(ordered, degrees)
    v = (
        np.concatenate([graph.neighbors(node) for node in ordered.tolist()])
        if int(degrees.sum())
        else np.empty(0, dtype=np.int64)
    )
    keep = position[v] >= 0
    indptr = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[keep], minlength=k), out=indptr[1:])
    sub = AttributedGraph.from_csr(
        indptr,
        position[v[keep]],
        [graph.attributes_of(node) for node in ordered.tolist()],
        weights=None if weigh is None else weigh(u[keep], v[keep]),
    )
    to_sub = dict(zip(ordered.tolist(), range(k)))
    return SubgraphView(graph=sub, to_parent=ordered, to_sub=to_sub)
