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

from repro.errors import GraphError
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


def induced_subgraph(
    graph: AttributedGraph,
    members: Sequence[int],
    keep_weights: bool = False,
) -> SubgraphView:
    """Extract the subgraph induced by ``members``.

    Parameters
    ----------
    graph:
        Parent graph.
    members:
        Node ids to keep; duplicates are rejected to surface caller bugs.
    keep_weights:
        When true and the parent is weighted, edge weights are carried over.
    """
    member_list = [int(v) for v in members]
    member_set = set(member_list)
    if len(member_set) != len(member_list):
        raise GraphError("members contains duplicate node ids")
    if not member_list:
        raise GraphError("cannot induce a subgraph on an empty node set")

    ordered = sorted(member_set)
    to_sub = {v: i for i, v in enumerate(ordered)}
    to_parent = np.asarray(ordered, dtype=np.int64)

    edges: list[tuple[int, int]] = []
    weights: dict[tuple[int, int], float] = {}
    for u in ordered:
        row = graph.neighbors(u)
        wrow = graph.neighbor_weights(u) if keep_weights else None
        for i, v in enumerate(row):
            v = int(v)
            if v > u and v in member_set:
                su, sv = to_sub[u], to_sub[v]
                edges.append((su, sv))
                if wrow is not None:
                    weights[(min(su, sv), max(su, sv))] = float(wrow[i])

    attributes = [graph.attributes_of(v) for v in ordered]
    sub = AttributedGraph(
        len(ordered),
        edges,
        attributes=attributes,
        edge_weights=weights if keep_weights and graph.is_weighted else None,
    )
    return SubgraphView(graph=sub, to_parent=to_parent, to_sub=to_sub)
