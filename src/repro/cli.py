"""Command-line interface: run queries and regenerate paper artifacts.

Installed as the ``cod`` console script::

    cod datasets                      # Table-I style dataset statistics
    cod query cora --node 17 --k 5    # one COD query through CODL
    cod explain cora --node 17        # LORE decision + per-level evidence
    cod trace cora --node 17 --k 5    # one query's span tree (wall time per stage)
    cod serve-sim cora --fault-site lore --fault-rate 1.0
    cod serve-sim cora --metrics-out metrics.json   # stage timers + counters
    cod fig4 | cod fig7 | cod fig8 | cod fig9
    cod table2 | cod casestudy | cod ablation

Experiments accept ``--export PATH`` (.json or .csv) to archive results.

Every experiment accepts ``--queries`` / ``--scale`` / ``--seed`` to trade
fidelity for runtime.

Library errors (:class:`~repro.errors.ReproError`) are reported as a
one-line message on stderr with exit code 2, not a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro.core.pipeline import CODL
from repro.core.problem import CODQuery
from repro.datasets.queries import generate_queries
from repro.datasets.registry import DATASET_NAMES, load_dataset
from repro.errors import (
    HierarchyError,
    IndexError_,
    InfluenceError,
    ReproError,
)
from repro.eval import experiments
from repro.eval.reporting import render_table

#: Exception class injected per fault site by ``cod serve-sim`` — matches
#: what the real subsystem would plausibly raise at that site.
_SIM_FAULT_EXC = {
    "rr_sampling": InfluenceError,
    "lore": HierarchyError,
    "clustering": HierarchyError,
    "himor_build": IndexError_,
    "himor_load": IndexError_,
}


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _non_negative_float(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="cod",
        description="Characteristic community discovery (ICDE 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--queries", type=int, default=20,
                       help="queries per dataset (default 20)")
        p.add_argument("--theta", type=int, default=10,
                       help="RR graphs per node (default 10)")
        p.add_argument("--scale", type=float, default=1.0,
                       help="dataset size multiplier (default 1.0)")
        p.add_argument("--seed", type=int, default=7, help="generation seed")
        p.add_argument("--export", type=str, default=None, metavar="PATH",
                       help="also write results to PATH (.json or .csv)")

    p = sub.add_parser("datasets", help="print Table-I style dataset statistics")
    common(p)

    for command_name, help_text in (
        ("query", "answer one COD query with CODL"),
        ("explain", "show LORE's decision and the per-level evidence"),
    ):
        p = sub.add_parser(command_name, help=help_text)
        p.add_argument("dataset", choices=DATASET_NAMES)
        p.add_argument("--node", type=int, default=None,
                       help="query node (default: sampled)")
        p.add_argument("--attribute", type=int, default=None,
                       help="query attribute (default: one of the node's)")
        p.add_argument("--k", type=int, default=5,
                       help="required influence rank")
        common(p)

    p = sub.add_parser(
        "serve-sim",
        help="replay a query workload through CODServer with injected faults",
    )
    p.add_argument("dataset", choices=DATASET_NAMES)
    p.add_argument("--k", type=int, default=5, help="required influence rank")
    p.add_argument("--deadline", type=_non_negative_float, default=None,
                   metavar="SECONDS",
                   help="per-query wall-clock deadline (default: none)")
    p.add_argument("--sample-budget", type=_non_negative_int, default=None,
                   metavar="N",
                   help="per-query RR-sample budget (default: none)")
    p.add_argument("--fault-site", choices=sorted(_SIM_FAULT_EXC), default=None,
                   help="inject deterministic faults at this site")
    p.add_argument("--fault-rate", type=_probability, default=0.3,
                   help="per-call failure probability at --fault-site")
    p.add_argument("--breaker-threshold", type=int, default=3,
                   help="consecutive LORE failures that open the breaker")
    p.add_argument("--breaker-cooldown", type=_non_negative_float, default=1.0,
                   help="breaker cool-down in seconds")
    p.add_argument("--workers", type=_non_negative_int, default=0, metavar="N",
                   help="serve through N supervised worker processes "
                        "(default 0: in-process CODServer)")
    p.add_argument("--chaos", type=str, default=None, metavar="SPEC",
                   help="scripted chaos schedule for supervised mode, "
                        "e.g. 'kill@3,wedge@7,corrupt-checkpoint@1'")
    p.add_argument("--queue-capacity", type=int, default=64, metavar="N",
                   help="admission queue bound in supervised mode (default 64)")
    p.add_argument("--task-timeout", type=_non_negative_float, default=30.0,
                   metavar="SECONDS",
                   help="wedge-detection deadline per dispatched task "
                        "(default 30)")
    p.add_argument("--index-dir", type=str, default=None, metavar="DIR",
                   help="persist per-worker HIMOR indexes (and build "
                        "checkpoints) under DIR in supervised mode")
    p.add_argument("--metrics-out", type=str, default=None, metavar="PATH",
                   help="profile every stage and write the metrics "
                        "snapshot (JSON) to PATH; in supervised mode the "
                        "snapshot is the fleet-wide rollup")
    p.add_argument("--pool", action="store_true",
                   help="share one RR-sample pool across queries (per "
                        "worker in supervised mode); answers become "
                        "correlated but sampling is paid once")
    p.add_argument("--pool-seeded", action="store_true",
                   help="draw the pool with per-sample seeds (implies "
                        "--pool; requires an integer --seed) so graph "
                        "updates repair it incrementally instead of "
                        "resampling; a seeded pool always draws with the "
                        "hashed vectorized kernel, --fast or not")
    p.add_argument("--shared-pool", action="store_true",
                   help="supervised mode: materialize one RR-sample pool "
                        "in the supervisor and publish graph + arena as "
                        "shared-memory segments workers attach read-only "
                        "(zero-copy, no per-worker resampling; implies "
                        "--pool)")
    p.add_argument("--shard-attributes", type=str, default="auto",
                   metavar="SPEC",
                   help="shared-pool mode: restricted-shard policy — "
                        "'auto' (default) shards attributes that cross "
                        "--shard-hot-threshold, 'none' disables, or a "
                        "comma-separated attribute list shards exactly "
                        "those (hot at first query)")
    p.add_argument("--shard-hot-threshold", type=int, default=4, metavar="N",
                   help="admitted queries an attribute needs before the "
                        "supervisor publishes its restricted shard "
                        "(default 4)")
    p.add_argument("--fast", action="store_true",
                   help="use the vectorized batch RR sampler for an "
                        "unseeded pool and for fresh per-query draws; "
                        "statistically equivalent answers, not the same "
                        "RNG stream as the compatible sampler")
    p.add_argument("--updates", type=str, default=None, metavar="FILE",
                   help="JSONL update batches replayed mid-workload (one "
                        "{\"updates\": [...], \"at\": N} object per line); "
                        "each batch applies at a safe point before query "
                        "'at' (default: batches spread evenly) and bumps "
                        "the serving epoch")
    p.add_argument("--cache-capacity", type=int, default=64, metavar="N",
                   help="entry bound for the LORE chain and restricted "
                        "arena LRU caches (default 64); LORE's local "
                        "reclusterings are bounded by bytes instead")
    p.add_argument("--state-dir", type=str, default=None, metavar="DIR",
                   help="durable state directory (WAL + epoch snapshots): "
                        "startup recovers the newest proven state, every "
                        "applied batch is fsynced before acknowledgement, "
                        "and a kill -9 loses nothing acknowledged")
    p.add_argument("--snapshot-every", type=_non_negative_int, default=None,
                   metavar="N",
                   help="write a full-state snapshot every N epochs (and "
                        "compact the WAL behind the oldest retained "
                        "snapshot); requires --state-dir")
    common(p)

    p = sub.add_parser(
        "trace",
        help="answer one query and print its span tree (per-stage timings)",
    )
    p.add_argument("dataset", choices=DATASET_NAMES)
    p.add_argument("--node", type=int, default=None,
                   help="query node (default: sampled)")
    p.add_argument("--attribute", type=int, default=None,
                   help="query attribute (default: one of the node's)")
    p.add_argument("--k", type=int, default=5,
                   help="required influence rank")
    common(p)

    for name, help_text in (
        ("fig4", "hierarchy-skew comparison (Fig. 4)"),
        ("fig7", "effectiveness grid (Fig. 7)"),
        ("fig8", "Compressed vs Independent (Fig. 8)"),
        ("fig9", "runtime comparison (Fig. 9)"),
        ("table2", "HIMOR overhead (Table II)"),
        ("casestudy", "case study (Section V-E)"),
        ("ablation", "LORE design ablation"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns a process exit code.

    Library failures (any :class:`ReproError`) print a one-line message to
    stderr and exit with code 2 — never a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"cod: error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    config = experiments.ExperimentConfig(
        n_queries=args.queries, theta=args.theta,
        scale=args.scale, seed=args.seed,
    )
    command = args.command
    results: object = None
    key_names: "tuple[str, ...] | None" = None
    if command == "datasets":
        results = _cmd_datasets(config)
    elif command == "query":
        _cmd_query(args, config)
    elif command == "explain":
        _cmd_explain(args, config)
    elif command == "trace":
        _cmd_trace(args)
    elif command == "serve-sim":
        results = _cmd_serve_sim(args)
    elif command == "fig4":
        results = _cmd_fig4(config)
        key_names = ("dataset",)
    elif command == "fig7":
        results = _cmd_fig7(config)
        key_names = ("dataset", "method", "k")
    elif command == "fig8":
        results = _cmd_fig8(config)
        key_names = ("dataset", "variant", "theta")
    elif command == "fig9":
        results = _cmd_fig9(config)
        key_names = ("dataset",)
    elif command == "table2":
        results = _cmd_table2(config)
    elif command == "casestudy":
        results = _cmd_casestudy(config)
    elif command == "ablation":
        results = _cmd_ablation(config)
        key_names = ("dataset", "variant")
    export_path = getattr(args, "export", None)
    if export_path and results is not None:
        _export(results, key_names, export_path)
    return 0


def _export(
    results: object, key_names: "tuple[str, ...] | None", path: str
) -> None:
    """Write results to ``path`` as JSON or (flattened) CSV by suffix."""
    from repro.eval.export import flatten_nested, write_csv, write_json

    if path.endswith(".csv"):
        if key_names is not None:
            rows = flatten_nested(results, key_names)  # type: ignore[arg-type]
        elif isinstance(results, list):
            rows = results  # row-dict lists (tables, case study)
        else:
            rows = [results]  # type: ignore[list-item]
        write_csv(rows, path)
    else:
        write_json(results, path)
    print(f"results written to {path}")


def _cmd_datasets(config: experiments.ExperimentConfig):
    rows = experiments.table1_dataset_stats(config=config)
    print(render_table(
        "Table I: dataset statistics (synthetic analogues)",
        ["dataset", "|V|", "|E|", "|A|", "mean |H(q)|", "log2 |V|",
         "paper |V|", "paper |E|"],
        [[r["dataset"], r["nodes"], r["edges"], r["attributes"],
          r["mean_H_q"], r["log2_n"], r["paper_nodes"], r["paper_edges"]]
         for r in rows],
    ))
    return rows


def _cmd_query(args: argparse.Namespace, config: experiments.ExperimentConfig) -> None:
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    graph = data.graph
    query = _resolve_query(args, graph)
    pipeline = CODL(graph, theta=args.theta, seed=args.seed)
    result = pipeline.discover(query)
    print(f"dataset    : {args.dataset} (n={graph.n}, m={graph.m})")
    print(f"query      : node={query.node} attribute={query.attribute} k={query.k}")
    if result.found:
        members = sorted(int(v) for v in result.members)
        preview = ", ".join(str(v) for v in members[:20])
        ellipsis = ", ..." if len(members) > 20 else ""
        print(f"community  : size={result.size} [{preview}{ellipsis}]")
    else:
        print("community  : none (query node is not top-k influential anywhere)")
    print(f"chain      : {result.chain_length} communities examined")
    print(f"query time : {result.elapsed:.3f}s")


def _resolve_query(args: argparse.Namespace, graph) -> CODQuery:
    """Resolve node/attribute defaults shared by query and explain."""
    if args.node is None:
        return generate_queries(graph, count=1, k=args.k, rng=args.seed)[0]
    attribute = args.attribute
    if attribute is None:
        attrs = sorted(graph.attributes_of(args.node))
        if not attrs:
            print(f"node {args.node} has no attributes; pass --attribute",
                  file=sys.stderr)
            raise SystemExit(2)
        attribute = attrs[0]
    return CODQuery(args.node, attribute, args.k)


def _cmd_explain(args: argparse.Namespace, config: experiments.ExperimentConfig) -> None:
    from repro.core.compressed import compressed_cod
    from repro.core.explain import explain_evaluation, explain_lore
    from repro.core.lore import lore_chain
    from repro.hierarchy.nnchain import agglomerative_hierarchy

    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    graph = data.graph
    query = _resolve_query(args, graph)
    hierarchy = agglomerative_hierarchy(graph)
    lore = lore_chain(graph, hierarchy, query.node, query.attribute)
    print(explain_lore(lore, hierarchy, query.node, query.attribute).render())
    print()
    evaluation = compressed_cod(
        graph, lore.chain, k=query.k, theta=args.theta, rng=args.seed
    )
    print(explain_evaluation(evaluation, query.k).render())


def _cmd_trace(args: argparse.Namespace) -> None:
    """Answer one query with tracing on and print the span tree."""
    from repro.obs import QueryTrace
    from repro.serving import CODServer

    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    graph = data.graph
    query = _resolve_query(args, graph)
    server = CODServer(graph, theta=args.theta, seed=args.seed)
    trace = QueryTrace()
    answer = server.answer(query, trace=trace)
    size = 0 if answer.members is None else len(answer.members)
    print(f"dataset : {args.dataset} (n={graph.n}, m={graph.m})")
    print(f"query   : node={query.node} attribute={query.attribute} k={query.k}")
    print(f"answer  : rung={answer.rung} size={size} "
          f"retries={answer.retries} t={answer.elapsed * 1000:.1f}ms")
    print()
    print(trace.render())


def _write_metrics(path: str, mode: str, health: dict, metrics: dict) -> None:
    """Persist one ``cod-metrics/1`` snapshot document."""
    import json

    document = {
        "schema": "cod-metrics/1",
        "mode": mode,
        "health": health,
        "metrics": metrics,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
    print(f"metrics written to {path}")


def _parse_update_batches(args: argparse.Namespace) -> list:
    """Load ``--updates`` JSONL batches (empty list when the flag is off)."""
    if args.updates is None:
        return []
    from repro.dynamic.log import read_batches

    batches = read_batches(args.updates)
    print(f"update log: {len(batches)} batches from {args.updates}")
    return batches


def _update_schedule(batches: list, n_queries: int) -> "dict[int, list]":
    """Map query index -> batches applied just before it.

    File order is preserved: a batch never applies before one that
    precedes it in the log (explicit ``at`` hints are clamped up to keep
    replay order equal to validation order).
    """
    schedule: dict[int, list] = {}
    floor = 0
    for position, batch in enumerate(batches):
        if batch.at is not None:
            at = max(floor, min(int(batch.at), n_queries))
        else:
            at = max(floor, (position + 1) * n_queries // (len(batches) + 1))
        floor = at
        schedule.setdefault(at, []).append(batch)
    return schedule


def _cmd_serve_sim(args: argparse.Namespace):
    """Replay a workload through CODServer, optionally under faults."""
    from repro.serving import CODServer
    from repro.utils import faults

    if args.cache_capacity < 1:
        raise ReproError(
            f"--cache-capacity must be >= 1, got {args.cache_capacity}"
        )
    if args.pool_seeded and not isinstance(args.seed, int):
        raise ReproError("--pool-seeded requires an integer --seed")
    if args.shared_pool and args.workers < 1:
        raise ReproError("--shared-pool requires supervised mode (--workers N)")
    if args.snapshot_every is not None and args.state_dir is None:
        raise ReproError("--snapshot-every requires --state-dir")
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    graph = data.graph
    queries = generate_queries(graph, count=args.queries, k=args.k, rng=args.seed)
    update_batches = _parse_update_batches(args)
    if args.workers > 0:
        return _serve_sim_supervised(args, graph, queries, update_batches)
    registry = None
    if args.metrics_out is not None or args.state_dir is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    state_store = None
    if args.state_dir is not None:
        from repro.serving.durability import DurableStateStore

        state_store = DurableStateStore(
            args.state_dir,
            snapshot_every=args.snapshot_every,
            metrics=registry,
        )
        recovery = state_store.recover(base_graph=graph)
        graph = recovery.graph
        print(f"durability: {recovery.describe()}")
    pool = None
    if args.pool or args.pool_seeded:
        from repro.core.pool import SharedSamplePool

        pool = SharedSamplePool(
            graph,
            theta=args.theta,
            seed=args.seed,
            per_sample_seeds=args.pool_seeded,
            fast=args.fast,
        )
    server = CODServer(
        graph,
        theta=args.theta,
        seed=args.seed,
        deadline_s=args.deadline,
        sample_budget=args.sample_budget,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        metrics=registry,
        pool=pool,
        cache_capacity=args.cache_capacity,
        fast_sampling=args.fast,
        state_store=state_store,
    )
    if state_store is not None:
        server.epoch = state_store.epoch
    if args.fault_site is not None:
        injection = faults.inject(
            site=args.fault_site,
            rate=args.fault_rate,
            exc=_SIM_FAULT_EXC[args.fault_site],
            seed=args.seed,
        )
        print(f"injecting {_SIM_FAULT_EXC[args.fault_site].__name__} at "
              f"{args.fault_site!r} with rate {args.fault_rate}")
    else:
        injection = contextlib.nullcontext()

    schedule = _update_schedule(update_batches, len(queries))
    with injection:
        answers = []
        for i, query in enumerate(queries):
            for batch in schedule.get(i, ()):
                _print_epoch_report(server.apply_updates(batch))
            answers.append(server.answer(query))
        # Trailing batches (at >= n_queries) still apply, so the
        # replayed log and the final health epoch stay complete.
        for batch in schedule.get(len(queries), ()):
            _print_epoch_report(server.apply_updates(batch))
    for i, (query, answer) in enumerate(zip(queries, answers)):
        size = 0 if answer.members is None else len(answer.members)
        line = (
            f"[{i:03d}] node={query.node:5d} attr={query.attribute:3d} "
            f"k={query.k} -> {answer.rung:8s} size={size:5d} "
            f"retries={answer.retries} t={answer.elapsed * 1000:7.1f}ms"
        )
        if update_batches:
            line += f" epoch={answer.epoch}"
        if answer.notes:
            line += f"  ({answer.notes[-1]})"
        print(line)

    health = server.health()
    print()
    print("health report")
    if update_batches:
        updates = health["updates"]
        print(f"  epoch              : {health['epoch']} "
              f"(batches={updates['batches_applied']}, "
              f"updates={updates['updates_applied']}, "
              f"repaired_samples={updates['repaired_samples']}, "
              f"cache_invalidated={updates['cache_invalidated']})")
    print(f"  queries            : {health['queries']}")
    for rung, count in sorted(health["answered_per_rung"].items()):
        print(f"  answered via {rung:7s}: {count}")
    print(f"  refused            : {health['refused']}")
    print(f"  retries            : {health['retries']}")
    print(f"  deadline exceeded  : {health['deadline_exceeded']}")
    print(f"  budget exhausted   : {health['budget_exhausted']}")
    print(f"  breaker state      : {health['breaker_state']} "
          f"(short-circuits: {health['breaker_short_circuits']})")
    latency = health["latency"]
    print(f"  latency p50/p95    : {latency['p50_s'] * 1000:.1f}ms / "
          f"{latency['p95_s'] * 1000:.1f}ms")
    for name, stats in sorted(health["caches"].items()):
        bound = (
            f"entries={stats['entries']}/{stats['capacity']}"
            if stats["capacity"] is not None
            else f"bytes={stats['current_bytes']}/{stats['max_bytes']}"
        )
        print(f"  cache {name:12s} : {bound} hits={stats['hits']} "
              f"misses={stats['misses']} evictions={stats['evictions']}")
    if state_store is not None:
        print(f"  durable epoch      : {state_store.epoch} "
              f"(snapshots: {state_store.snapshots.epochs() or 'none'})")
        state_store.close()
    if registry is not None and args.metrics_out is not None:
        _write_metrics(
            args.metrics_out, "in-process", health, registry.snapshot()
        )
    return health


def _print_epoch_report(report: dict) -> None:
    """One line per applied batch in ``serve-sim --updates`` replay."""
    print(f"-- epoch {report['epoch']}: {report['updates']} updates applied "
          f"(repaired_samples={report['repaired_samples']}, "
          f"cache_invalidated={report['cache_invalidated']}, "
          f"index={report['index']})")


def _serve_sim_supervised(args: argparse.Namespace, graph, queries,
                          update_batches: "list | None" = None):
    """Replay the workload through a supervised multi-worker fleet."""
    from repro.serving import ChaosSchedule, ServingSupervisor

    update_batches = update_batches or []

    chaos = None
    if args.chaos is not None:
        try:
            chaos = ChaosSchedule.parse(args.chaos)
        except ValueError as exc:
            raise ReproError(f"--chaos: {exc}") from exc
        print(f"chaos schedule: {chaos.actions}")
    fault_specs = []
    if args.fault_site is not None:
        fault_specs.append({
            "site": args.fault_site,
            "rate": args.fault_rate,
            "exc": _SIM_FAULT_EXC[args.fault_site],
            "seed": args.seed,
        })
        print(f"injecting {_SIM_FAULT_EXC[args.fault_site].__name__} at "
              f"{args.fault_site!r} with rate {args.fault_rate} in every worker")
    shard_spec = (args.shard_attributes or "auto").strip().lower()
    if shard_spec == "auto":
        shard_attributes = "auto"
    elif shard_spec in ("none", "off"):
        shard_attributes = None
    else:
        try:
            shard_attributes = [
                int(a) for a in shard_spec.split(",") if a.strip()
            ]
        except ValueError as exc:
            raise ReproError(
                f"--shard-attributes: expected 'auto', 'none', or a "
                f"comma-separated attribute list, got {args.shard_attributes!r}"
            ) from exc
    supervisor = ServingSupervisor(
        graph,
        n_workers=args.workers,
        queue_capacity=args.queue_capacity,
        task_timeout_s=args.task_timeout,
        index_dir=args.index_dir,
        profile=args.metrics_out is not None,
        chaos=chaos,
        worker_fault_specs=fault_specs,
        use_pool=args.pool,
        pool_seeded=args.pool_seeded,
        shared_pool=args.shared_pool,
        shard_attributes=shard_attributes,
        shard_hot_threshold=args.shard_hot_threshold,
        state_dir=args.state_dir,
        snapshot_every=args.snapshot_every,
        server_options={
            "theta": args.theta,
            "seed": args.seed,
            "deadline_s": args.deadline,
            "sample_budget": args.sample_budget,
            "breaker_threshold": args.breaker_threshold,
            "breaker_cooldown_s": args.breaker_cooldown,
            "cache_capacity": args.cache_capacity,
            "fast_sampling": args.fast,
        },
    )
    if supervisor.recovery is not None:
        print(f"durability: {supervisor.recovery.describe()}")
    with supervisor:
        if update_batches:
            schedule = _update_schedule(update_batches, len(queries))
            seqs = []
            for i, query in enumerate(queries):
                for batch in schedule.get(i, ()):
                    epoch = supervisor.submit_updates(
                        batch.updates, label=batch.label
                    )
                    print(f"-- submitted update batch "
                          f"({len(batch)} updates) -> epoch {epoch}")
                seqs.append(supervisor.submit(query))
                # Interleave supervision with admission so updates land
                # mid-workload rather than after a fully drained queue.
                supervisor.poll(0.0)
            for batch in schedule.get(len(queries), ()):
                epoch = supervisor.submit_updates(
                    batch.updates, label=batch.label
                )
                print(f"-- submitted update batch "
                      f"({len(batch)} updates) -> epoch {epoch}")
            supervisor.drain(timeout_s=300.0)
            answers = [supervisor.answer_for(seq) for seq in seqs]
        else:
            answers = supervisor.serve(queries, drain_timeout_s=300.0)
        health = supervisor.health()
    for i, (query, answer) in enumerate(zip(queries, answers)):
        size = 0 if answer.members is None else len(answer.members)
        line = (
            f"[{i:03d}] node={query.node:5d} attr={query.attribute:3d} "
            f"k={query.k} -> {answer.rung:16s} size={size:5d} "
            f"t={answer.elapsed * 1000:7.1f}ms"
        )
        if update_batches:
            line += f" epoch={answer.epoch}"
        if answer.notes:
            line += f"  ({answer.notes[-1]})"
        print(line)
    print()
    print("fleet health report")
    print(f"  workers            : {health['n_workers']}")
    if update_batches:
        updates = health["updates"]
        print(f"  epoch              : {health['epoch']} "
              f"(batches={updates['batches_submitted']}, "
              f"acks={updates['acks']}, skipped={updates['skipped']})")
        for epoch, report in sorted(
            updates["per_epoch"].items(), key=lambda item: int(item[0])
        ):
            print(f"    epoch {epoch}          : "
                  f"workers_applied={report['workers_applied']} "
                  f"repaired_samples={report['repaired_samples']} "
                  f"cache_invalidated={report['cache_invalidated']} "
                  f"index={report['index']}")
    print(f"  admitted/completed : {health['admitted']}/{health['completed']}")
    for rung, count in sorted(health["answered_per_rung"].items()):
        print(f"  answered via {rung:7s}: {count}")
    print(f"  refused            : {health['refused']} "
          f"(overload: {health['refused_overload']}, "
          f"crash: {health['refused_crash']})")
    print(f"  shed               : {health['shed']}")
    print(f"  restarts           : {health['restarts']} "
          f"(wedge kills: {health['wedge_kills']}, "
          f"heartbeat kills: {health['heartbeat_kills']})")
    print(f"  duplicate results  : {health['duplicate_results']}")
    affinity = health["affinity"]
    print(f"  affinity dispatch  : attributes={affinity['attributes']} "
          f"claims={affinity['claims']} hits={affinity['hits']} "
          f"misses={affinity['misses']} evictions={affinity['evictions']}")
    if affinity.get("shard_slots"):
        print(f"  shard routing      : "
              f"hits={affinity['shard_hits']} "
              f"misses={affinity['shard_misses']} "
              f"slots={affinity['shard_slots']}")
    latency = health["latency"]
    print(f"  latency p50/p95    : {latency['p50_s'] * 1000:.1f}ms / "
          f"{latency['p95_s'] * 1000:.1f}ms")
    shm = health.get("shm", {})
    if shm.get("enabled"):
        print(f"  shared memory      : "
              f"{shm['segment_bytes'] / 1024:.1f} KiB in "
              f"{len(shm['segments'])} segments, "
              f"attaches={shm['attaches']} publishes={shm['publishes']} "
              f"sweeps={shm['sweeps']} "
              f"(reclaimed {shm['swept_segments']} stale)")
        for kind, block in sorted(shm["segments"].items()):
            print(f"    {kind:7s}          : {block['name']} "
                  f"({block['bytes'] / 1024:.1f} KiB, "
                  f"attached {block['attaches']}x)")
        shards = shm.get("shards", {})
        if shards.get("enabled") and shards.get("published"):
            print(f"    shards           : {len(shards['published'])} "
                  f"({shards['bytes'] / 1024:.1f} KiB, "
                  f"publishes={shards['publishes']} "
                  f"rotations={shards['rotations']})")
            for attr, block in sorted(shards["published"].items()):
                print(f"      attr {attr:4s}     : {block['name']} "
                      f"(vertex {block['vertex']}, epoch {block['epoch']}, "
                      f"{block['samples']} samples)")
    for worker_id, info in sorted(health["workers"].items()):
        line = (
            f"  worker {worker_id}           : {info['state']:10s} "
            f"tasks={info['tasks_done']} restarts={info['restarts']}"
        )
        line += f" resumed_builds={info['resumed_builds']}"
        if update_batches:
            line += f" epoch={info['epoch']}"
        if info["death_reasons"]:
            line += f"  deaths: {'; '.join(info['death_reasons'])}"
        print(line)
    durability = health.get("durability")
    if durability is not None:
        recovery = durability["recovery"] or {}
        print(f"  durability         : epoch={health['epoch']} "
              f"snapshots={durability['snapshots'] or 'none'} "
              f"replayed={recovery.get('replayed_epochs', 0)} "
              f"quarantined={len(durability['quarantined'])}")
    if args.metrics_out is not None:
        _write_metrics(
            args.metrics_out, "supervised", health, health["fleet_metrics"]
        )
    return health


def _cmd_fig4(config: experiments.ExperimentConfig):
    results = experiments.fig4_hierarchy_skew(config=config)
    methods = ("CODU", "CODR", "CODL")
    print(render_table(
        "Fig. 4: mean size of the 5 deepest communities containing a query node",
        ["dataset", *methods],
        [[name, *(results[name][m] for m in methods)] for name in results],
        float_format="{:.1f}",
    ))
    return results


def _cmd_fig7(config: experiments.ExperimentConfig):
    results = experiments.fig7_effectiveness(config=config)
    for measure, label in (
        ("size", "average size |C*| (a-f)"),
        ("rho", "average topology density rho (g-l)"),
        ("phi", "average attribute density phi (m-r)"),
        ("influence", "average query influence I(q) (s-x)"),
    ):
        for name, per_method in results.items():
            methods = list(per_method)
            rows = []
            for k in config.ks:
                rows.append([k, *(per_method[m][k][measure] for m in methods)])
            print(render_table(
                f"Fig. 7 {label} — {name}", ["k", *methods], rows,
                float_format="{:.3f}",
            ))
            print()
    return results


def _cmd_fig8(config: experiments.ExperimentConfig):
    results = experiments.fig8_compressed_vs_independent(config=config)
    for name, per_variant in results.items():
        thetas = sorted(next(iter(per_variant.values())))
        for metric, label in (
            ("precision", "top-k precision (a/d)"),
            ("size_mean", "average |C*| (b/e)"),
            ("time", "execution time, s (c/f)"),
        ):
            rows = [
                [theta, *(per_variant[v][theta][metric]
                          for v in ("Compressed", "Independent"))]
                for theta in thetas
            ]
            print(render_table(
                f"Fig. 8 {label} — {name}",
                ["theta", "Compressed", "Independent"], rows,
            ))
            print()
    return results


def _cmd_fig9(config: experiments.ExperimentConfig):
    results = experiments.fig9_runtime(config=config)
    methods = ("CODR", "CODL-", "CODL")
    print(render_table(
        "Fig. 9: mean COD query runtime (seconds)",
        ["dataset", *methods],
        [[name, *(results[name][m] for m in methods)] for name in results],
        float_format="{:.4f}",
    ))
    return results


def _cmd_table2(config: experiments.ExperimentConfig):
    rows = experiments.table2_himor_overhead(config=config)
    print(render_table(
        "Table II: HIMOR index overhead",
        ["dataset", "build time (s)", "index (MB)", "input (MB)", "mean depth"],
        [[r["dataset"], r["time_s"], r["index_mb"], r["input_mb"], r["mean_depth"]]
         for r in rows],
    ))
    return rows


def _cmd_casestudy(config: experiments.ExperimentConfig):
    cases = experiments.case_study(config=config)
    for case in cases:
        print(f"query node {case['query']} (attribute {case['attribute']}):")
        for method, info in case["methods"].items():
            if info is None:
                print(f"  {method:5s}: no community")
            else:
                print(
                    f"  {method:5s}: size={info['size']:4d} "
                    f"rank={info['rank']:3d} conductance={info['conductance']:.3f}"
                )
        print()
    return cases


def _cmd_ablation(config: experiments.ExperimentConfig):
    results = experiments.ablation_lore(config=config)
    for name, per_variant in results.items():
        rows = [
            [variant, stats["size"], stats["phi"], stats["found"]]
            for variant, stats in per_variant.items()
        ]
        print(render_table(
            f"LORE ablation — {name}",
            ["variant", "mean |C*|", "mean phi", "found rate"], rows,
        ))
        print()
    return results


if __name__ == "__main__":
    raise SystemExit(main())
