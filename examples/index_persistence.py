"""Operational workflow: precompute the HIMOR index offline, serve online.

The HIMOR index depends only on the graph and the non-attributed
hierarchy, so it can be built once (batch job), persisted, and shared by
every query-serving process. This script shows the full offline/online
split, including graph serialization (the index envelope carries its
hierarchy), and measures the online speedup the index buys over
index-free evaluation.

Run:  python examples/index_persistence.py
"""

import tempfile
import time
from pathlib import Path

from repro import CODL, CODServer, generate_queries, load_dataset
from repro.graph.io import load_json, save_json
from repro.serving.server import RUNG_CODL, RUNG_CODL_MINUS


def offline_phase(workdir: Path) -> None:
    """Batch job: generate/ingest the graph, cluster it, build the index."""
    data = load_dataset("amazon", seed=7)
    pipeline = CODL(data.graph, theta=10, seed=11)

    start = time.perf_counter()
    index = pipeline.index  # builds hierarchy + index
    build = time.perf_counter() - start

    save_json(data.graph, workdir / "graph.json")
    index.save(workdir / "himor.json")
    print(f"offline: built HIMOR in {build:.2f}s "
          f"(index {index.memory_bytes() / 2**20:.2f} MB), artifacts in {workdir}")


def timed(server: CODServer, rung: str, query) -> "tuple[float, int]":
    """Milliseconds and community size of one direct rung run."""
    start = time.perf_counter()
    members, _ = server.run_rung(rung, query.node, query.attribute, [query.k])
    elapsed_ms = (time.perf_counter() - start) * 1000
    found = members[query.k]
    return elapsed_ms, 0 if found is None else len(found)


def online_phase(workdir: Path) -> None:
    """Query server: load artifacts, answer queries, report latency."""
    graph = load_json(workdir / "graph.json")

    # Each server loads the persisted index (and adopts its hierarchy)
    # instead of building one; a missing or corrupt artifact raises.
    # Two servers, so neither rung reuses the other's LORE chains.
    indexed, baseline = (
        CODServer(graph, theta=10, seed=19, index_path=workdir / "himor.json",
                  auto_rebuild_index=False)
        for _ in range(2)
    )
    indexed.warm()
    baseline.warm()

    queries = generate_queries(graph, count=10, k=5, rng=31)
    indexed_ms, unindexed_ms = [], []
    for query in queries:
        ms1, size1 = timed(indexed, RUNG_CODL, query)
        ms2, size2 = timed(baseline, RUNG_CODL_MINUS, query)
        indexed_ms.append(ms1)
        unindexed_ms.append(ms2)
        agree = "==" if size1 == size2 else "~"
        print(f"  node {query.node:5d}: CODL {ms1:7.1f} ms "
              f"(|C*|={size1:4d}) {agree} CODL- "
              f"{ms2:7.1f} ms (|C*|={size2:4d})")

    speedup = (sum(unindexed_ms) / max(sum(indexed_ms), 1e-9))
    print(f"online: mean latency {sum(indexed_ms) / len(indexed_ms):.1f} ms "
          f"with index vs {sum(unindexed_ms) / len(unindexed_ms):.1f} ms "
          f"without ({speedup:.1f}x)")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="himor-") as tmp:
        workdir = Path(tmp)
        offline_phase(workdir)
        online_phase(workdir)


if __name__ == "__main__":
    main()
