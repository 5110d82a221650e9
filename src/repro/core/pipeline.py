"""End-to-end COD pipelines — the methods compared in Section V.

* :class:`CODU` — non-attributed hierarchy on ``g`` + compressed evaluation.
* :class:`CODR` — global reclustering: hierarchy on the attribute-weighted
  ``g_l`` + compressed evaluation.
* :class:`CODLMinus` — LORE chain + compressed evaluation (no index); the
  "CODL-" baseline of Section V-D.
* :class:`CODL` — LORE chain + HIMOR index + Algorithm 3; the paper's fully
  optimized method.

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
from repro.core.lore import lore_chain
from repro.core.problem import CODQuery
from repro.errors import QueryError
from repro.graph.graph import AttributedGraph
from repro.graph.weighting import AttributeWeighting, attribute_weighted_graph
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.dendrogram import CommunityHierarchy
from repro.hierarchy.linkage import Linkage
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.influence.models import InfluenceModel, WeightedCascade
from repro.influence.arena import sample_arena
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
    """Shared construction knobs for all pipelines."""

    method_name = "abstract"

    def __init__(
        self,
        graph: AttributedGraph,
        theta: int = 10,
        model: InfluenceModel | None = None,
        weighting: AttributeWeighting | None = None,
        linkage: Linkage | None = None,
        seed: "int | np.random.Generator | None" = None,
        rebalance: bool = False,
    ) -> None:
        self.graph = graph
        self.theta = int(theta)
        self.model = model or WeightedCascade()
        self.weighting = weighting or AttributeWeighting()
        self.linkage = linkage
        self.rng = ensure_rng(seed)
        #: Post-process hierarchies with
        #: :func:`repro.hierarchy.balance.rebalanced_hierarchy`; caps the
        #: skew term of HIMOR construction on hub-dominated graphs.
        self.rebalance = bool(rebalance)

    def _build_hierarchy(self, graph: AttributedGraph) -> CommunityHierarchy:
        """Cluster ``graph``, honoring the pipeline's rebalance option."""
        hierarchy = agglomerative_hierarchy(graph, linkage=self.linkage)
        if self.rebalance:
            from repro.hierarchy.balance import rebalanced_hierarchy

            hierarchy = rebalanced_hierarchy(hierarchy)
        return hierarchy

    def discover(self, query: CODQuery) -> CODResult:
        """Answer one COD query."""
        results = self.discover_multi(query.node, query.attribute, [query.k])
        return results[query.k]

    def discover_multi(
        self, node: int, attribute: "int | None", ks: "list[int]"
    ) -> dict[int, CODResult]:
        """Answer one query for several rank budgets, sharing the sampling."""
        raise NotImplementedError

    def discover_batch(self, queries: "list[CODQuery]") -> list[CODResult]:
        """Answer a workload of queries.

        The base implementation loops over :meth:`discover`; pipelines
        whose evaluation can share RR samples across queries (CODU)
        override it with a pooled variant.
        """
        return [self.discover(query) for query in queries]

    def _validate(self, node: int, attribute: "int | None", ks: "list[int]") -> None:
        if not ks:
            raise QueryError("at least one rank budget k is required")
        CODQuery(node, attribute, max(ks)).validate(self.graph)


class CODU(_BasePipeline):
    """Non-attributed hierarchy + compressed evaluation.

    Ignores the query attribute entirely (the Section III setting); serves
    as the no-reclustering control in Figs. 4 and 7.
    """

    method_name = "CODU"

    def __init__(self, graph: AttributedGraph, **kwargs: object) -> None:
        super().__init__(graph, **kwargs)  # type: ignore[arg-type]
        self._hierarchy: CommunityHierarchy | None = None

    @property
    def hierarchy(self) -> CommunityHierarchy:
        """The shared non-attributed hierarchy (built on first use)."""
        if self._hierarchy is None:
            self._hierarchy = self._build_hierarchy(self.graph)
        return self._hierarchy

    def discover_multi(
        self, node: int, attribute: "int | None", ks: "list[int]"
    ) -> dict[int, CODResult]:
        """Answer with the shared non-attributed hierarchy (Algorithm 1)."""
        self._validate(node, attribute, ks)
        hierarchy = self.hierarchy
        start = time.perf_counter()
        chain = CommunityChain.from_hierarchy(hierarchy, node)
        evaluation = compressed_cod(
            self.graph, chain, k=ks, theta=self.theta, model=self.model, rng=self.rng
        )
        elapsed = time.perf_counter() - start
        return {
            k: CODResult(
                method=self.method_name,
                query=CODQuery(node, attribute, k),
                members=evaluation.characteristic_community(k),
                chain_length=len(chain),
                elapsed=elapsed,
            )
            for k in ks
        }


    def discover_batch(self, queries: "list[CODQuery]") -> list[CODResult]:
        """Pooled batch answering: one shared RR pool serves every query.

        Statistically the answers are coupled through the shared samples
        (see :class:`repro.core.pool.SharedSamplePool`); for workload
        sweeps this is the intended trade for a large constant speedup.
        """
        from repro.core.pool import SharedSamplePool

        hierarchy = self.hierarchy
        pool = SharedSamplePool(
            self.graph, theta=self.theta, model=self.model, seed=self.rng
        )
        results: list[CODResult] = []
        for query in queries:
            query.validate(self.graph)
            start = time.perf_counter()
            chain = CommunityChain.from_hierarchy(hierarchy, query.node)
            evaluation = pool.evaluate(chain, k=query.k)
            elapsed = time.perf_counter() - start
            results.append(
                CODResult(
                    method=self.method_name,
                    query=query,
                    members=evaluation.characteristic_community(query.k),
                    chain_length=len(chain),
                    elapsed=elapsed,
                )
            )
        return results


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
        hierarchy = self._build_hierarchy(weighted)
        if self.cache_hierarchies:
            self._cache.put(attribute, hierarchy)
        return hierarchy

    def discover_multi(
        self, node: int, attribute: "int | None", ks: "list[int]"
    ) -> dict[int, CODResult]:
        """Answer on the attribute-aware hierarchy over ``g_l``."""
        self._validate(node, attribute, ks)
        if attribute is None:
            raise QueryError("CODR requires a query attribute")
        cached = attribute in self._cache
        start = time.perf_counter()
        hierarchy = self.hierarchy_for(attribute)
        if cached:
            # Exclude cache hits from the measured time only when the
            # hierarchy truly was precomputed before this call.
            start = time.perf_counter()
        chain = CommunityChain.from_hierarchy(hierarchy, node)
        evaluation = compressed_cod(
            self.graph, chain, k=ks, theta=self.theta, model=self.model, rng=self.rng
        )
        elapsed = time.perf_counter() - start
        return {
            k: CODResult(
                method=self.method_name,
                query=CODQuery(node, attribute, k),
                members=evaluation.characteristic_community(k),
                chain_length=len(chain),
                elapsed=elapsed,
            )
            for k in ks
        }


class CODLMinus(_BasePipeline):
    """LORE chain + compressed evaluation over the full ``H_l(q)``.

    The "CODL-" baseline of Section V-D: pays local reclustering per query
    (cheap) but still evaluates influence ranks bottom-to-root with global
    sampling (expensive).
    """

    method_name = "CODL-"

    def __init__(self, graph: AttributedGraph, **kwargs: object) -> None:
        super().__init__(graph, **kwargs)  # type: ignore[arg-type]
        self._hierarchy: CommunityHierarchy | None = None

    @property
    def hierarchy(self) -> CommunityHierarchy:
        """The shared non-attributed hierarchy (built on first use)."""
        if self._hierarchy is None:
            self._hierarchy = self._build_hierarchy(self.graph)
        return self._hierarchy

    def discover_multi(
        self, node: int, attribute: "int | None", ks: "list[int]"
    ) -> dict[int, CODResult]:
        """Answer with LORE's chain and full compressed evaluation."""
        self._validate(node, attribute, ks)
        if attribute is None:
            raise QueryError(f"{self.method_name} requires a query attribute")
        hierarchy = self.hierarchy
        start = time.perf_counter()
        lore = lore_chain(
            self.graph,
            hierarchy,
            node,
            attribute,
            weighting=self.weighting,
            linkage=self.linkage,
        )
        evaluation = compressed_cod(
            self.graph, lore.chain, k=ks, theta=self.theta, model=self.model, rng=self.rng
        )
        elapsed = time.perf_counter() - start
        return {
            k: CODResult(
                method=self.method_name,
                query=CODQuery(node, attribute, k),
                members=evaluation.characteristic_community(k),
                chain_length=len(lore.chain),
                elapsed=elapsed,
            )
            for k in ks
        }


class CODL(CODLMinus):
    """The fully optimized method: LORE + HIMOR index (Algorithm 3)."""

    method_name = "CODL"

    def __init__(self, graph: AttributedGraph, **kwargs: object) -> None:
        super().__init__(graph, **kwargs)
        self._index: HimorIndex | None = None
        self.index_build_seconds: float | None = None

    @property
    def index(self) -> HimorIndex:
        """The shared HIMOR index (built on first use; timed)."""
        if self._index is None:
            start = time.perf_counter()
            self._index = HimorIndex.build(
                self.graph,
                self.hierarchy,
                theta=self.theta,
                model=self.model,
                rng=self.rng,
            )
            self.index_build_seconds = time.perf_counter() - start
        return self._index

    def discover_multi(
        self, node: int, attribute: "int | None", ks: "list[int]"
    ) -> dict[int, CODResult]:
        """Answer via Algorithm 3: index scan, then local fallback."""
        self._validate(node, attribute, ks)
        if attribute is None:
            raise QueryError("CODL requires a query attribute")
        index = self.index  # ensure built outside the timed window
        start = time.perf_counter()
        lore = lore_chain(
            self.graph,
            self.hierarchy,
            node,
            attribute,
            weighting=self.weighting,
            linkage=self.linkage,
        )

        # Algorithm 3, answering all budgets jointly: the index scan
        # resolves each k independently; the fallback (compressed
        # evaluation inside C_l, restricted sampling) runs at most once and
        # serves every unresolved budget.
        members_by_k: dict[int, np.ndarray | None] = {}
        fallback_ks: list[int] = []
        for k in ks:
            ancestor = index.largest_qualifying_ancestor(
                node, k, floor_vertex=lore.c_ell_vertex
            )
            if ancestor is not None:
                members_by_k[k] = index.hierarchy.members(ancestor)
            else:
                members_by_k[k] = None
                fallback_ks.append(k)
        if fallback_ks and lore.c_ell_chain_level > 0:
            inner_chain = lore.chain.prefix(lore.c_ell_chain_level)
            allowed = set(
                int(v) for v in index.hierarchy.members(lore.c_ell_vertex)
            )
            n_local = self.theta * len(allowed)
            local_samples = sample_arena(
                self.graph, n_local, model=self.model, rng=self.rng, allowed=allowed
            )
            evaluation = compressed_cod(
                self.graph,
                inner_chain,
                k=fallback_ks,
                rr_graphs=local_samples,
            )
            for k in fallback_ks:
                members_by_k[k] = evaluation.characteristic_community(k)
        elapsed = time.perf_counter() - start

        return {
            k: CODResult(
                method=self.method_name,
                query=CODQuery(node, attribute, k),
                members=members_by_k[k],
                chain_length=len(lore.chain),
                elapsed=elapsed,
            )
            for k in ks
        }
