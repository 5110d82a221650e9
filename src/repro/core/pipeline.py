"""End-to-end COD pipelines — the methods compared in Section V.

* :class:`CODU` — non-attributed hierarchy on ``g`` + compressed evaluation.
* :class:`CODR` — global reclustering: hierarchy on the attribute-weighted
  ``g_l`` + compressed evaluation.
* :class:`CODLMinus` — LORE chain + compressed evaluation (no index); the
  "CODL-" baseline of Section V-D.
* :class:`CODL` — LORE chain + HIMOR index + Algorithm 3; the paper's fully
  optimized method.

``CODU``, ``CODLMinus`` and ``CODL`` are adapters: each answers through the
same-named rung of a private, pool-less
:class:`~repro.serving.server.CODServer`, so the paper's figures and the
serving benchmark run the same code. ``CODR`` evaluates here.

Each pipeline exposes ``discover(query)`` returning a :class:`CODResult`
and ``discover_multi(node, attribute, ks)`` that answers several rank
budgets while sharing the expensive sampling — the shape every experiment
driver sweeps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.compressed import compressed_cod
from repro.core.himor import HimorIndex
from repro.core.problem import CODQuery, validate_budgets
from repro.errors import QueryError
from repro.graph.graph import AttributedGraph
from repro.graph.weighting import AttributeWeighting, attribute_weighted_graph
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.utils.cache import LRUCache
from repro.utils.rng import ensure_rng


@dataclass
class CODResult:
    """Answer to one COD query.

    Attributes
    ----------
    method:
        Pipeline name (``"CODU"``, ``"CODR"``, ``"CODL-"``, ``"CODL"``).
    query:
        The query answered.
    members:
        Node ids of the characteristic community ``C*(q)``, or ``None``
        when the query node is not top-``k`` influential in any community
        of its chain (the paper scores such queries as 0 in every measure).
    chain_length:
        ``|H_l(q)|`` — number of communities examined.
    elapsed:
        Query wall-clock seconds (hierarchy/index construction shared
        across queries is excluded; per-query reclustering is included).
    """

    method: str
    query: CODQuery
    members: np.ndarray | None
    chain_length: int
    elapsed: float

    @property
    def found(self) -> bool:
        """Whether a characteristic community exists for this query."""
        return self.members is not None

    @property
    def size(self) -> int:
        """``|C*(q)|`` (0 when not found, matching the paper's scoring)."""
        return 0 if self.members is None else len(self.members)


class _BasePipeline:
    """Shared construction knobs and the timed query path of every pipeline."""

    method_name = "abstract"
    #: Whether queries must name an attribute (every method but CODU).
    requires_attribute = True

    def __init__(
        self,
        graph: AttributedGraph,
        theta: int = 10,
        weighting: AttributeWeighting | None = None,
        seed: "int | np.random.Generator | None" = None,
    ) -> None:
        self.graph = graph
        self.theta = int(theta)
        self.weighting = weighting or AttributeWeighting()
        self.rng = ensure_rng(seed)

    def discover(self, query: CODQuery) -> CODResult:
        """Answer one COD query."""
        results = self.discover_multi(query.node, query.attribute, [query.k])
        return results[query.k]

    def discover_multi(
        self, node: int, attribute: "int | None", ks: "list[int]"
    ) -> dict[int, CODResult]:
        """Answer one query for several rank budgets, sharing the sampling.

        Every ``k`` is validated before any work; what all queries share is
        built before the timer starts.
        """
        validate_budgets(self.graph, node, attribute, ks)
        if attribute is None and self.requires_attribute:
            raise QueryError(f"{self.method_name} requires a query attribute")
        self._prepare()
        start = time.perf_counter()
        members_by_k, chain_length = self._answer(node, attribute, ks)
        elapsed = time.perf_counter() - start
        return {
            k: CODResult(
                self.method_name, CODQuery(node, attribute, k), members_by_k[k],
                chain_length, elapsed,
            )
            for k in ks
        }

    def discover_batch(self, queries: "list[CODQuery]") -> list[CODResult]:
        """Answer a workload of queries, one :meth:`discover` each (CODU
        overrides this to share one RR pool across the workload)."""
        return [self.discover(query) for query in queries]

    def _prepare(self) -> None:
        """Build what every query shares, outside the timed window."""

    def _answer(
        self, node: int, attribute: "int | None", ks: "list[int]"
    ) -> "tuple[dict[int, np.ndarray | None], int]":
        """The community per ``k`` and the number of communities examined."""
        raise NotImplementedError


class _RungPipeline(_BasePipeline):
    """A pipeline answered by its server's rung named :attr:`method_name`.

    Each query samples afresh from the pipeline's seed stream (the server
    has no pool); the server's LORE memos persist across queries.
    """

    def __init__(self, graph: AttributedGraph, **kwargs: object) -> None:
        super().__init__(graph, **kwargs)  # type: ignore[arg-type]
        # Local import: repro.serving imports repro.dynamic, which imports us.
        from repro.serving.server import CODServer

        #: The server whose rung answers; ``server.rng`` is :attr:`rng`.
        self.server = CODServer(
            graph, theta=self.theta, weighting=self.weighting,
            seed=self.rng,
        )

    @property
    def hierarchy(self) -> CommunityHierarchy:
        """The shared non-attributed hierarchy (built on first use)."""
        return self.server.hierarchy

    def _prepare(self) -> None:
        self.hierarchy

    def _answer(
        self, node: int, attribute: "int | None", ks: "list[int]"
    ) -> "tuple[dict[int, np.ndarray | None], int]":
        return self.server.run_rung(self.method_name, node, attribute, ks)


class CODU(_RungPipeline):
    """Non-attributed hierarchy + compressed evaluation.

    Ignores the query attribute entirely (the Section III setting); serves
    as the no-reclustering control in Figs. 4 and 7.
    """

    method_name = "CODU"
    requires_attribute = False

    def discover_batch(self, queries: "list[CODQuery]") -> list[CODResult]:
        """Pooled batch answering: one shared RR pool serves every query.

        Statistically the answers are coupled through the shared samples
        (see :class:`repro.core.pool.SharedSamplePool`); for workload
        sweeps this is the intended trade for a large constant speedup.
        """
        from repro.core.pool import SharedSamplePool

        # Drawn lazily from this pipeline's stream in the first query's timed
        # window; the server evaluates the batch over it, then unpools.
        self.server.pool = SharedSamplePool(
            self.graph, theta=self.theta, seed=self.rng
        )
        try:
            return [self.discover(query) for query in queries]
        finally:
            self.server.pool = None


class CODR(_BasePipeline):
    """Global reclustering: hierarchy on ``g_l`` + compressed evaluation.

    Parameters
    ----------
    cache_hierarchies:
        When true (default), the per-attribute hierarchy is built once and
        reused across queries — appropriate for effectiveness sweeps. The
        runtime experiment (Fig. 9) disables the cache because the paper
        charges global reclustering to every query.
    cache_capacity:
        Bound on resident cached hierarchies (LRU eviction): a diverse
        workload no longer leaks one hierarchy per attribute forever.
    """

    method_name = "CODR"

    def __init__(
        self,
        graph: AttributedGraph,
        cache_hierarchies: bool = True,
        cache_capacity: int = 32,
        **kwargs: object,
    ) -> None:
        super().__init__(graph, **kwargs)  # type: ignore[arg-type]
        self.cache_hierarchies = cache_hierarchies
        self._cache = LRUCache(cache_capacity, name="codr.hierarchies")

    def hierarchy_for(self, attribute: int) -> CommunityHierarchy:
        """The attribute-aware hierarchy over ``g_l`` (maybe cached)."""
        cached = self._cache.get(attribute)
        if cached is not None:
            return cached
        weighted = attribute_weighted_graph(self.graph, attribute, self.weighting)
        hierarchy = agglomerative_hierarchy(weighted)
        if self.cache_hierarchies:
            self._cache.put(attribute, hierarchy)
        return hierarchy

    def _answer(
        self, node: int, attribute: "int | None", ks: "list[int]"
    ) -> "tuple[dict[int, np.ndarray | None], int]":
        # Timed: an uncached hierarchy is global reclustering, charged to
        # the query; a cached one costs a lookup.
        chain = CommunityChain.from_hierarchy(self.hierarchy_for(attribute), node)
        evaluation = compressed_cod(
            self.graph, chain, k=ks, theta=self.theta, rng=self.rng
        )
        return {k: evaluation.characteristic_community(k) for k in ks}, len(chain)


class CODLMinus(_RungPipeline):
    """LORE chain + compressed evaluation over the full ``H_l(q)``.

    The "CODL-" baseline of Section V-D: pays local reclustering per query
    (cheap) but still evaluates influence ranks bottom-to-root with global
    sampling (expensive).
    """

    method_name = "CODL-"


class CODL(CODLMinus):
    """The fully optimized method: LORE + HIMOR index (Algorithm 3)."""

    method_name = "CODL"
    #: Seconds the first :attr:`index` access took (``None`` before it).
    index_build_seconds: "float | None" = None

    @property
    def index(self) -> HimorIndex:
        """The shared HIMOR index (built on first use; timed)."""
        start = time.perf_counter()
        index = self.server.index
        if self.index_build_seconds is None:
            self.index_build_seconds = time.perf_counter() - start
        return index

    def _prepare(self) -> None:
        self.index
