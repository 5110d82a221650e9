"""Attribute-aware edge weighting (the ``g_l`` transformation).

Section IV of the paper turns the original graph into a weighted graph
``g_l`` whose weights blend topology with relevance to the query attribute
``l_q``; the hierarchy built over ``g_l`` is then attribute-aware. The paper
treats the precise transformation as orthogonal to its contribution (it
cites attributed-clustering surveys); we implement the natural scheme it
describes for CODR — "placing additional weights for query attributed
edges" — plus two variants for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import InfluenceError, NodeNotFoundError
from repro.graph.graph import AttributedGraph
from repro.graph.subgraph import SubgraphView, _induce

#: Recognized weighting schemes.
SCHEMES = ("both_endpoints", "endpoint_average", "jaccard")


@dataclass(frozen=True)
class AttributeWeighting:
    """Configuration for the ``g_l`` transformation.

    Attributes
    ----------
    beta:
        Strength of the attribute bonus; ``beta = 0`` reduces every scheme
        to the unweighted graph.
    scheme:
        - ``"both_endpoints"``: ``w = 1 + beta`` iff *both* endpoints carry
          ``l_q`` (the paper's "query-attributed edges" get the bonus).
        - ``"endpoint_average"``: ``w = 1 + beta * (c_u + c_v) / 2`` where
          ``c_x`` indicates ``l_q in A(x)`` — partial credit for one-sided
          edges.
        - ``"jaccard"``: ``w = 1 + beta * |A(u) & A(v)| / |A(u) | A(v)|``,
          attribute-similarity weighting that ignores ``l_q`` except through
          the node attribute sets (used as an ablation).
    """

    beta: float = 4.0
    scheme: str = "both_endpoints"

    def __post_init__(self) -> None:
        if self.beta < 0:
            raise InfluenceError(f"beta must be non-negative, got {self.beta}")
        if self.scheme not in SCHEMES:
            raise InfluenceError(f"unknown weighting scheme {self.scheme!r}; expected {SCHEMES}")

    def edge_weight(self, graph: AttributedGraph, u: int, v: int, attribute: int) -> float:
        """Weight assigned to edge ``(u, v)`` for query attribute ``attribute``."""
        for node in (u, v):
            if not 0 <= node < graph.n:
                raise NodeNotFoundError(node, graph.n)
        ends = np.asarray([u, v], dtype=np.int64)
        return float(self.edge_weights(graph, ends[:1], ends[1:], attribute)[0])

    def edge_weights(
        self,
        graph: AttributedGraph,
        u: np.ndarray,
        v: np.ndarray,
        attribute: int,
    ) -> np.ndarray:
        """Weights of the edges ``(u[i], v[i])`` for ``attribute``.

        One formula per scheme, shared by every caller. The float
        operations run in the order the per-edge definitions above state
        them, so a weight does not depend on which edges are weighted
        together. An attribute no node carries gives no bonus.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if self.scheme == "jaccard":
            bonus = np.zeros(len(u), dtype=np.float64)
            for i, (a, b) in enumerate(zip(u.tolist(), v.tolist())):
                a_u = graph.attributes_of(a)
                a_v = graph.attributes_of(b)
                union = a_u | a_v
                if union:
                    bonus[i] = self.beta * (len(a_u & a_v) / len(union))
            return 1.0 + bonus
        carries = np.zeros(graph.n, dtype=bool)
        if attribute in graph.attribute_universe:
            carries[graph.nodes_with_attribute(attribute)] = True
        if self.scheme == "both_endpoints":
            return np.where(carries[u] & carries[v], 1.0 + self.beta, 1.0)
        # endpoint_average
        c = carries[u].astype(np.int64) + carries[v].astype(np.int64)
        return 1.0 + self.beta * c / 2.0


def attribute_weighted_subgraph(
    graph: AttributedGraph,
    members: Sequence[int],
    attribute: int,
    weighting: AttributeWeighting | None = None,
) -> SubgraphView:
    """``g_l`` induced on ``members``, weighting only the induced edges.

    Equal to inducing :func:`attribute_weighted_graph` on ``members`` with
    its weights kept, but never materializes the whole ``g_l``: the
    induced edges are gathered as in
    :func:`~repro.graph.subgraph.induced_subgraph` and weighted in one
    :meth:`AttributeWeighting.edge_weights` call. This is what LORE
    reclusters (Algorithm 2, lines 2–3).
    """
    weighting = weighting or AttributeWeighting()
    return _induce(
        graph,
        members,
        lambda u, v: weighting.edge_weights(graph, u, v, attribute),
    )


def attribute_weighted_graph(
    graph: AttributedGraph,
    attribute: int,
    weighting: AttributeWeighting | None = None,
) -> AttributedGraph:
    """Materialize ``g_l`` for ``attribute`` under ``weighting``.

    The result has the same topology and attributes as ``graph`` but carries
    edge weights; it is what CODR clusters globally. LORE reclusters only
    ``C_l`` and weights just its induced edges
    (:func:`attribute_weighted_subgraph`); this is that function's
    all-nodes case.
    """
    return attribute_weighted_subgraph(
        graph, np.arange(graph.n, dtype=np.int64), attribute, weighting
    ).graph
