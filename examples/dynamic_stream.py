"""Dynamic COD: serving exact answers over an evolving graph.

The paper's Section IV-B discussion defers efficient dynamic HIMOR
maintenance to future work. `CODServer.apply_updates` does it per batch:
each batch advances the server's epoch, repairs only the pool samples
that touched the updated nodes, invalidates the stale caches and repairs
(or rebuilds) the HIMOR index from the repaired pool. Answers after a
batch equal a fresh server's on the updated graph. This example streams
random edge insertions into the cora analogue and answers a query after
every few batches.

Run:  python examples/dynamic_stream.py
"""

import numpy as np

from repro import CODQuery, load_dataset
from repro.core.pool import SharedSamplePool
from repro.dynamic import EdgeUpdate
from repro.serving import CODServer


def main() -> None:
    data = load_dataset("cora", scale=0.5, seed=7)
    graph = data.graph
    # Per-sample seeds let a batch redraw only the samples it touched.
    pool = SharedSamplePool(graph, theta=10, seed=11, per_sample_seeds=True)
    server = CODServer(graph, theta=10, seed=11, pool=pool)
    server.warm()
    rng = np.random.default_rng(3)
    existing = set(graph.edges())
    n = graph.n
    print(f"initial graph: |V|={n} |E|={graph.m}, "
          f"pool of {pool.n_samples} RR samples\n")

    for step in range(1, 41):
        # Stream one random insertion (deletions work the same way).
        while True:
            u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
            if u != v and (u, v) not in existing:
                break
        existing.add((u, v))
        report = server.apply_updates([EdgeUpdate(u, v)])

        if step % 8 == 0:
            q = int(rng.integers(0, n))
            attribute = sorted(server.graph.attributes_of(q))[0]
            answer = server.answer(CODQuery(q, attribute, 5))
            size = 0 if answer.members is None else len(answer.members)
            print(f"epoch {report['epoch']:3d}: index {report['index']:8s} "
                  f"repaired_samples={report['repaired_samples']:4d}  "
                  f"q={q:4d} -> {answer.rung} |C*|={size}")

    updates = server.health()["updates"]
    print(f"\nfinal: epoch {server.epoch}, |E|={server.graph.m}, "
          f"{updates['repaired_samples']} samples repaired over "
          f"{updates['batches_applied']} batches.")


if __name__ == "__main__":
    main()
