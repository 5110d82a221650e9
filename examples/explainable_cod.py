"""Explainable COD: evidence trails and shared pools.

Two production-minded extensions around the paper's core algorithms:

1. **Evidence trails** — ``explain_lore`` shows why LORE reclustered the
   community it did; ``explain_evaluation`` shows, level by level, the
   sample counts behind the top-k verdicts (the full audit trail for one
   answer).
2. **Shared sample pools** — a workload of many queries over one graph can
   reuse one RR pool; this measures the speedup against per-query
   sampling.

Run:  python examples/explainable_cod.py
"""

import time

from repro import CommunityChain, agglomerative_hierarchy, load_dataset
from repro.core import (
    SharedSamplePool,
    compressed_cod,
    explain_evaluation,
    explain_lore,
    lore_chain,
)
from repro.datasets import generate_queries


def main() -> None:
    data = load_dataset("citeseer", seed=7)
    graph = data.graph
    hierarchy = agglomerative_hierarchy(graph)
    queries = generate_queries(graph, count=12, k=5, rng=3)
    q0 = queries[0]

    # --- 1. evidence trails -------------------------------------------------
    print("=" * 72)
    lore = lore_chain(graph, hierarchy, q0.node, q0.attribute)
    print(explain_lore(lore, hierarchy, q0.node, q0.attribute).render())
    print()
    evaluation = compressed_cod(graph, lore.chain, k=5, theta=10, rng=11)
    print(explain_evaluation(evaluation, 5).render())

    # --- 2. shared pools ----------------------------------------------------
    print()
    print("=" * 72)
    start = time.perf_counter()
    pool = SharedSamplePool(graph, theta=10, seed=11, lazy=False)
    pool_build = time.perf_counter() - start

    start = time.perf_counter()
    for query in queries:
        chain = CommunityChain.from_hierarchy(hierarchy, query.node)
        compressed_cod(graph, chain, k=5, rr_graphs=pool.arena)
    pooled = time.perf_counter() - start

    start = time.perf_counter()
    for query in queries:
        chain = CommunityChain.from_hierarchy(hierarchy, query.node)
        compressed_cod(graph, chain, k=5, theta=10, rng=11)
    fresh = time.perf_counter() - start

    print(f"shared pool over {len(queries)} queries: "
          f"build {pool_build:.2f}s + evaluate {pooled:.2f}s "
          f"vs per-query sampling {fresh:.2f}s "
          f"({fresh / max(pool_build + pooled, 1e-9):.1f}x)")


if __name__ == "__main__":
    main()
