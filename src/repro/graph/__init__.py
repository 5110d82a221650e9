"""Attributed-graph substrate: storage, IO, metrics, weighting, subgraphs."""

from repro.graph.build import graph_from_edge_list, graph_from_networkx_like
from repro.graph.graph import AttributedGraph
from repro.graph.metrics import (
    attribute_density,
    conductance,
    modularity,
    topology_density,
    triangle_count,
)
from repro.graph.subgraph import induced_subgraph
from repro.graph.weighting import (
    AttributeWeighting,
    attribute_weighted_graph,
    attribute_weighted_subgraph,
)

__all__ = [
    "AttributedGraph",
    "graph_from_edge_list",
    "graph_from_networkx_like",
    "induced_subgraph",
    "attribute_weighted_graph",
    "attribute_weighted_subgraph",
    "AttributeWeighting",
    "topology_density",
    "attribute_density",
    "conductance",
    "modularity",
    "triangle_count",
]
