"""COD problem statement objects (Definition 1).

A :class:`CODQuery` bundles the query node, query attribute, and required
influence rank ``k``. The *answer* to a query is the largest community in
the (attribute-aware) hierarchy containing the query node in which the node
is top-``k`` influential; evaluators return richer per-level diagnostics,
but every pipeline ultimately reports a :class:`~repro.core.pipeline.CODResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import QueryError
from repro.graph.graph import AttributedGraph


@dataclass(frozen=True)
class CODQuery:
    """One COD query ``(q, l_q, k)``.

    Attributes
    ----------
    node:
        The query node ``q``.
    attribute:
        The query attribute ``l_q``; ``None`` runs the non-attributed
        variant (the Section III setting, used by CODU).
    k:
        Required influence rank: the answer community must satisfy
        ``rank_C(q) <= k`` (1-based; the paper's default is ``k = 5``).
    """

    node: int
    attribute: int | None
    k: int = 5

    def validate(self, graph: AttributedGraph) -> None:
        """Raise :class:`QueryError` when the query is malformed for ``graph``."""
        if not (0 <= self.node < graph.n):
            raise QueryError(f"query node {self.node} is not in the graph (n={graph.n})")
        if self.k <= 0:
            raise QueryError(f"k must be positive, got {self.k}")
        if self.attribute is not None:
            if self.attribute not in graph.attribute_universe:
                raise QueryError(
                    f"query attribute {self.attribute} is not present on any node"
                )


def validate_budgets(
    graph: AttributedGraph, node: int, attribute: "int | None", ks: "list[int]"
) -> None:
    """Raise :class:`QueryError` unless ``ks`` is non-empty and every
    ``CODQuery(node, attribute, k)`` is valid for ``graph``."""
    if not ks:
        raise QueryError("at least one rank budget k is required")
    for k in ks:
        CODQuery(node, attribute, k).validate(graph)
