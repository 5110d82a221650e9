"""Experiment drivers — one per table/figure of Section V.

Each driver reproduces the workload of one paper artifact on the registry
datasets and returns structured results; ``print_*`` (or the benchmark
harness in ``benchmarks/``) renders the same rows/series the paper
reports. Paper-vs-measured numbers are recorded in EXPERIMENTS.md.

The drivers default to scaled-down workloads (fewer queries, smaller
graphs) so the whole suite runs in minutes; every size knob is a
parameter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.acq import acq_community
from repro.baselines.atc import atc_community
from repro.baselines.cac import cac_community
from repro.core.compressed import compressed_cod
from repro.core.independent import independent_cod
from repro.core.lore import lore_chain
from repro.core.pipeline import CODL, CODR, CODU, CODLMinus
from repro.core.problem import CODQuery
from repro.datasets.queries import generate_queries
from repro.datasets.registry import dataset_spec, load_dataset
from repro.errors import DatasetError
from repro.eval.measures import (
    global_influence_table,
    is_characteristic,
    measure_community,
    oracle_rank,
)
from repro.graph.metrics import conductance
from repro.graph.weighting import AttributeWeighting, attribute_weighted_graph
from repro.hierarchy.chain import CommunityChain
from repro.hierarchy.nnchain import agglomerative_hierarchy
from repro.utils.cache import LRUCache
from repro.utils.rng import ensure_rng

#: Datasets used in the effectiveness grid (Fig. 7) — all but livejournal,
#: which the paper reserves for the scalability test.
EFFECTIVENESS_DATASETS = ("cora", "citeseer", "pubmed", "retweet", "amazon", "dblp")

#: Datasets of Fig. 4 (hierarchy-skew comparison).
SKEW_DATASETS = ("cora", "citeseer", "pubmed", "retweet")

BASELINE_METHODS = ("ACQ", "ATC", "CAC")
COD_METHODS = ("CODU", "CODR", "CODL")


@dataclass
class ExperimentConfig:
    """Shared knobs for all drivers (scaled-down defaults)."""

    n_queries: int = 20
    theta: int = 10
    ks: tuple[int, ...] = (1, 2, 3, 4, 5)
    seed: int = 7
    query_seed: int = 3
    eval_seed: int = 11
    scale: float = 1.0
    oracle_samples_per_node: int = 100
    weighting: AttributeWeighting = field(default_factory=AttributeWeighting)
    #: Bound for the experiments' per-attribute memos of reclustered
    #: hierarchies — LRU-evicted beyond this.
    cache_capacity: int = 64


# --------------------------------------------------------------- Table I


def table1_dataset_stats(
    names: "tuple[str, ...]" = (*EFFECTIVENESS_DATASETS, "livejournal"),
    config: ExperimentConfig | None = None,
) -> list[dict[str, object]]:
    """Table I: dataset statistics including the mean ``|H_l(q)|``.

    The hierarchy-depth column is measured on the non-attributed hierarchy
    (the quantity that drives HIMOR's cost, Theorem 6).
    """
    config = config or ExperimentConfig()
    rows: list[dict[str, object]] = []
    for name in names:
        data = load_dataset(name, scale=config.scale, seed=config.seed)
        hierarchy = agglomerative_hierarchy(data.graph)
        depths = [len(hierarchy.path_communities(v)) for v in range(data.n)]
        spec = dataset_spec(name)
        rows.append(
            {
                "dataset": name,
                "nodes": data.n,
                "edges": data.m,
                "attributes": len(data.graph.attribute_universe),
                "mean_H_q": float(np.mean(depths)),
                "log2_n": float(np.log2(data.n)),
                "paper_nodes": spec.paper_nodes,
                "paper_edges": spec.paper_edges,
            }
        )
    return rows


# ----------------------------------------------------------------- Fig. 4


def fig4_hierarchy_skew(
    names: "tuple[str, ...]" = SKEW_DATASETS,
    config: ExperimentConfig | None = None,
    deepest: int = 5,
) -> dict[str, dict[str, float]]:
    """Fig. 4: mean size of the ``deepest`` smallest communities containing
    a query node, for the CODU / CODR / CODL hierarchies.

    Returns ``results[dataset][method]``.
    """
    config = config or ExperimentConfig()
    results: dict[str, dict[str, float]] = {}
    for name in names:
        data = load_dataset(name, scale=config.scale, seed=config.seed)
        graph = data.graph
        queries = generate_queries(
            graph, count=config.n_queries, rng=config.query_seed
        )
        base = agglomerative_hierarchy(graph)

        recl_cache = LRUCache(config.cache_capacity, name="recl")

        def reclustered(attribute: int):
            return recl_cache.get_or_create(
                attribute,
                lambda: agglomerative_hierarchy(
                    attribute_weighted_graph(graph, attribute, config.weighting)
                ),
            )

        per_method: dict[str, list[float]] = {m: [] for m in COD_METHODS}
        for query in queries:
            q, attribute = query.node, query.attribute
            chain_u = CommunityChain.from_hierarchy(base, q)
            chain_r = CommunityChain.from_hierarchy(reclustered(attribute), q)
            chain_l = lore_chain(
                graph, base, q, attribute, weighting=config.weighting
            ).chain
            for method, chain in (
                ("CODU", chain_u), ("CODR", chain_r), ("CODL", chain_l)
            ):
                sizes = chain.sizes[:deepest]
                per_method[method].append(float(np.mean(sizes)))
        results[name] = {m: float(np.mean(vals)) for m, vals in per_method.items()}
    return results


# ----------------------------------------------------------------- Fig. 7


def fig7_effectiveness(
    names: "tuple[str, ...]" = EFFECTIVENESS_DATASETS,
    config: ExperimentConfig | None = None,
    methods: "tuple[str, ...]" = (*BASELINE_METHODS, *COD_METHODS),
) -> dict[str, dict[str, dict[int, dict[str, float]]]]:
    """Fig. 7: the full effectiveness grid.

    Returns ``results[dataset][method][k]`` with keys ``size``, ``rho``,
    ``phi``, ``influence`` and ``found`` (fraction of queries answered).
    Community-search answers in which the query node is not top-k
    influential score 0, as in the paper.
    """
    config = config or ExperimentConfig()
    rng = ensure_rng(config.eval_seed)
    results: dict[str, dict[str, dict[int, dict[str, float]]]] = {}
    for name in names:
        data = load_dataset(name, scale=config.scale, seed=config.seed)
        graph = data.graph
        queries = generate_queries(graph, count=config.n_queries, rng=config.query_seed)
        influence_of = global_influence_table(
            graph, theta=config.theta, rng=ensure_rng(config.eval_seed)
        )

        pipelines = _build_pipelines(graph, config)
        per_method: dict[str, dict[int, dict[str, float]]] = {}
        for method in methods:
            accum: dict[int, list[dict[str, float]]] = {k: [] for k in config.ks}
            for query in queries:
                answers = _answer_query(
                    method, graph, pipelines, query, config, rng
                )
                for k in config.ks:
                    members = answers[k]
                    record = _measure_answer(
                        graph, members, query, influence_of
                    )
                    accum[k].append(record)
            per_method[method] = {
                k: _aggregate_records(records) for k, records in accum.items()
            }
        results[name] = per_method
    return results


def _build_pipelines(graph, config: ExperimentConfig) -> dict[str, object]:
    common = dict(theta=config.theta, weighting=config.weighting)
    return {
        "CODU": CODU(graph, seed=config.eval_seed, **common),
        "CODR": CODR(graph, seed=config.eval_seed, **common),
        "CODL": CODL(graph, seed=config.eval_seed, **common),
        "CODL-": CODLMinus(graph, seed=config.eval_seed, **common),
    }


def _answer_query(
    method: str,
    graph,
    pipelines: dict[str, object],
    query: CODQuery,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> dict[int, "np.ndarray | None"]:
    """One query's answer per rank budget, for any compared method."""
    ks = list(config.ks)
    if method in pipelines:
        pipeline = pipelines[method]
        results = pipeline.discover_multi(query.node, query.attribute, ks)
        return {k: results[k].members for k in ks}

    if method == "ACQ":
        members = acq_community(graph, query.node, query.attribute)
    elif method == "ATC":
        members = atc_community(graph, query.node, query.attribute)
    elif method == "CAC":
        members = cac_community(graph, query.node, query.attribute)
    else:
        raise DatasetError(f"unknown method {method!r}")

    # Baseline communities count only when the query node is top-k
    # influential inside them; the check is k-dependent but the community
    # is not, so the oracle rank is estimated once.
    answers: dict[int, np.ndarray | None] = {}
    if members is None:
        return {k: None for k in ks}
    if len(members) <= min(ks):
        rank = 1
    else:
        rank = oracle_rank(
            graph, members, query.node,
            samples_per_node=config.oracle_samples_per_node, rng=rng,
        )
    for k in ks:
        answers[k] = members if rank <= k or len(members) <= k else None
    return answers


def _measure_answer(graph, members, query: CODQuery, influence_of) -> dict[str, float]:
    measures = measure_community(graph, members, query.attribute)
    return {
        "size": float(measures.size),
        "rho": measures.topology_density,
        "phi": measures.attribute_density,
        "found": 1.0 if members is not None else 0.0,
        "influence": influence_of[query.node] if members is not None else float("nan"),
    }


def _aggregate_records(records: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for key in ("size", "rho", "phi", "found"):
        out[key] = float(np.mean([r[key] for r in records])) if records else 0.0
    influences = [r["influence"] for r in records if not np.isnan(r["influence"])]
    out["influence"] = float(np.mean(influences)) if influences else 0.0
    return out


# ----------------------------------------------------------------- Fig. 8


def fig8_compressed_vs_independent(
    names: "tuple[str, ...]" = ("cora", "citeseer"),
    thetas: "tuple[int, ...]" = (10, 20, 40, 80),
    config: ExperimentConfig | None = None,
    k: int = 5,
) -> dict[str, dict[str, dict[int, dict[str, float]]]]:
    """Fig. 8: Compressed vs Independent on the two small datasets.

    Both evaluate the same CODR chain per query. Returns
    ``results[dataset][variant][theta]`` with keys ``precision``,
    ``size_mean``, ``size_min``, ``size_max``, ``time`` and ``samples``.
    """
    config = config or ExperimentConfig()
    results: dict[str, dict[str, dict[int, dict[str, float]]]] = {}
    for name in names:
        data = load_dataset(name, scale=config.scale, seed=config.seed)
        graph = data.graph
        queries = generate_queries(graph, count=config.n_queries, rng=config.query_seed)

        hierarchies = LRUCache(config.cache_capacity, name="fig8.hierarchies")

        def chain_for(query: CODQuery) -> CommunityChain:
            attribute = query.attribute
            hierarchy = hierarchies.get_or_create(
                attribute,
                lambda: agglomerative_hierarchy(
                    attribute_weighted_graph(graph, attribute, config.weighting)
                ),
            )
            return CommunityChain.from_hierarchy(hierarchy, query.node)

        per_variant: dict[str, dict[int, dict[str, float]]] = {
            "Compressed": {}, "Independent": {},
        }
        for theta in thetas:
            comp_stats = _Fig8Accumulator()
            ind_stats = _Fig8Accumulator()
            rng = ensure_rng(config.eval_seed)
            oracle_rng = ensure_rng(config.eval_seed + 1)
            for query in queries:
                chain = chain_for(query)

                start = time.perf_counter()
                evaluation = compressed_cod(
                    graph, chain, k=k, theta=theta, rng=rng
                )
                members = evaluation.characteristic_community(k)
                comp_stats.add(
                    graph, members, query.node, k, time.perf_counter() - start,
                    theta * graph.n, config, oracle_rng,
                )

                start = time.perf_counter()
                ind_eval = independent_cod(graph, chain, k=k, theta=theta, rng=rng)
                ind_members = ind_eval.characteristic_community(k)
                ind_stats.add(
                    graph, ind_members, query.node, k,
                    time.perf_counter() - start,
                    ind_eval.n_samples_total, config, oracle_rng,
                )
            per_variant["Compressed"][theta] = comp_stats.summary()
            per_variant["Independent"][theta] = ind_stats.summary()
        results[name] = per_variant
    return results


class _Fig8Accumulator:
    """Collects per-query Fig. 8 statistics for one (variant, theta)."""

    def __init__(self) -> None:
        self.sizes: list[int] = []
        self.correct: list[bool] = []
        self.times: list[float] = []
        self.samples: list[int] = []

    def add(
        self, graph, members, q: int, k: int, elapsed: float, samples: int,
        config: ExperimentConfig, oracle_rng: np.random.Generator,
    ) -> None:
        self.times.append(elapsed)
        self.samples.append(samples)
        if members is None:
            return
        self.sizes.append(len(members))
        self.correct.append(
            is_characteristic(
                graph, members, q, k,
                samples_per_node=config.oracle_samples_per_node, rng=oracle_rng,
            )
        )

    def summary(self) -> dict[str, float]:
        return {
            "precision": float(np.mean(self.correct)) if self.correct else 0.0,
            "size_mean": float(np.mean(self.sizes)) if self.sizes else 0.0,
            "size_min": float(np.min(self.sizes)) if self.sizes else 0.0,
            "size_max": float(np.max(self.sizes)) if self.sizes else 0.0,
            "time": float(np.mean(self.times)) if self.times else 0.0,
            "samples": float(np.mean(self.samples)) if self.samples else 0.0,
        }


# ----------------------------------------------------------------- Fig. 9


def fig9_runtime(
    names: "tuple[str, ...]" = EFFECTIVENESS_DATASETS,
    config: ExperimentConfig | None = None,
    k: int = 5,
    include_scalability: bool = False,
) -> dict[str, dict[str, float]]:
    """Fig. 9: mean per-query runtime of CODR, CODL- and CODL.

    CODR's hierarchy cache is disabled so each query pays global
    reclustering, as the paper charges it. Index/hierarchy construction
    shared across queries is excluded (reported by Table II instead).
    Returns ``results[dataset][method]`` in seconds.
    """
    config = config or ExperimentConfig()
    if include_scalability:
        names = (*names, "livejournal")
    results: dict[str, dict[str, float]] = {}
    for name in names:
        data = load_dataset(name, scale=config.scale, seed=config.seed)
        graph = data.graph
        queries = generate_queries(graph, count=config.n_queries, rng=config.query_seed)
        common = dict(theta=config.theta, weighting=config.weighting)

        codr = CODR(graph, cache_hierarchies=False, seed=config.eval_seed, **common)
        codl_minus = CODLMinus(graph, seed=config.eval_seed, **common)
        codl = CODL(graph, seed=config.eval_seed, **common)
        # Shared structures are built outside the timed loop.
        _ = codl_minus.hierarchy
        _ = codl.index

        timings: dict[str, list[float]] = {"CODR": [], "CODL-": [], "CODL": []}
        for query in queries:
            for label, pipeline in (
                ("CODR", codr), ("CODL-", codl_minus), ("CODL", codl)
            ):
                result = pipeline.discover(CODQuery(query.node, query.attribute, k))
                timings[label].append(result.elapsed)
        results[name] = {m: float(np.mean(ts)) for m, ts in timings.items()}
    return results


# ---------------------------------------------------------------- Table II


def table2_himor_overhead(
    names: "tuple[str, ...]" = (*EFFECTIVENESS_DATASETS, "livejournal"),
    config: ExperimentConfig | None = None,
) -> list[dict[str, object]]:
    """Table II: HIMOR construction time and memory vs input size."""
    config = config or ExperimentConfig()
    rows: list[dict[str, object]] = []
    for name in names:
        data = load_dataset(name, scale=config.scale, seed=config.seed)
        graph = data.graph
        codl = CODL(graph, theta=config.theta, seed=config.eval_seed)
        start = time.perf_counter()
        index = codl.index
        build_seconds = time.perf_counter() - start
        input_bytes = graph.memory_bytes() + codl.hierarchy.memory_bytes()
        rows.append(
            {
                "dataset": name,
                "time_s": build_seconds,
                "index_mb": index.memory_bytes() / 2**20,
                "input_mb": input_bytes / 2**20,
                "mean_depth": codl.hierarchy.total_leaf_depth() / graph.n,
            }
        )
    return rows


# --------------------------------------------------------------- Case study


def case_study(
    name: str = "cora",
    config: ExperimentConfig | None = None,
    k: int = 1,
    max_cases: int = 2,
) -> list[dict[str, object]]:
    """Section V-E: CODL vs ATC/ACQ/CAC on individual queries at k=1.

    Picks queries for which CODL finds a characteristic community and
    reports, per method: community size, the query node's oracle rank
    inside it, and conductance — the quantities the paper's case study
    discusses.
    """
    config = config or ExperimentConfig()
    data = load_dataset(name, scale=config.scale, seed=config.seed)
    graph = data.graph
    queries = generate_queries(graph, count=config.n_queries, rng=config.query_seed)
    codl = CODL(graph, theta=config.theta, weighting=config.weighting,
                seed=config.eval_seed)
    oracle_rng = ensure_rng(config.eval_seed + 1)

    cases: list[dict[str, object]] = []
    for query in queries:
        if len(cases) >= max_cases:
            break
        result = codl.discover(CODQuery(query.node, query.attribute, k))
        if not result.found or result.size < 4:
            continue
        case: dict[str, object] = {
            "query": query.node,
            "attribute": query.attribute,
            "methods": {},
        }
        communities = {
            "CODL": result.members,
            "ATC": atc_community(graph, query.node, query.attribute),
            "ACQ": acq_community(graph, query.node, query.attribute),
            "CAC": cac_community(graph, query.node, query.attribute),
        }
        for label, members in communities.items():
            if members is None or len(members) == 0:
                case["methods"][label] = None
                continue
            rank = (
                1 if len(members) == 1 else oracle_rank(
                    graph, members, query.node,
                    samples_per_node=config.oracle_samples_per_node,
                    rng=oracle_rng,
                )
            )
            case["methods"][label] = {
                "size": len(members),
                "rank": rank,
                "conductance": conductance(graph, members),
            }
        cases.append(case)
    return cases


# ---------------------------------------------------------------- Ablation


def ablation_lore(
    names: "tuple[str, ...]" = ("cora", "citeseer"),
    config: ExperimentConfig | None = None,
    k: int = 5,
) -> dict[str, dict[str, dict[str, float]]]:
    """Ablation: LORE design choices (DESIGN.md §4).

    Compares (a) the depth-weighted reclustering score vs plain edge
    counting and (b) the ``g_l`` weighting schemes, reporting mean size,
    attribute density and found-rate of the resulting communities.
    Returns ``results[dataset][variant]``.
    """
    config = config or ExperimentConfig()
    variants: dict[str, dict[str, object]] = {
        "depth+both_endpoints": {
            "depth_weighted": True,
            "weighting": AttributeWeighting(scheme="both_endpoints"),
        },
        "count+both_endpoints": {
            "depth_weighted": False,
            "weighting": AttributeWeighting(scheme="both_endpoints"),
        },
        "depth+endpoint_average": {
            "depth_weighted": True,
            "weighting": AttributeWeighting(scheme="endpoint_average"),
        },
        "depth+jaccard": {
            "depth_weighted": True,
            "weighting": AttributeWeighting(scheme="jaccard"),
        },
    }
    results: dict[str, dict[str, dict[str, float]]] = {}
    for name in names:
        data = load_dataset(name, scale=config.scale, seed=config.seed)
        graph = data.graph
        queries = generate_queries(graph, count=config.n_queries, rng=config.query_seed)
        base = agglomerative_hierarchy(graph)
        per_variant: dict[str, dict[str, float]] = {}
        for label, options in variants.items():
            weighting: AttributeWeighting = options["weighting"]  # type: ignore[assignment]
            depth_weighted: bool = options["depth_weighted"]  # type: ignore[assignment]
            rng = ensure_rng(config.eval_seed)
            sizes: list[float] = []
            phis: list[float] = []
            found = 0
            for query in queries:
                lore = lore_chain(
                    graph, base, query.node, query.attribute,
                    weighting=weighting, depth_weighted=depth_weighted,
                )
                evaluation = compressed_cod(
                    graph, lore.chain, k=k, theta=config.theta, rng=rng
                )
                members = evaluation.characteristic_community(k)
                measures = measure_community(graph, members, query.attribute)
                sizes.append(float(measures.size))
                phis.append(measures.attribute_density)
                found += 1 if members is not None else 0
            per_variant[label] = {
                "size": float(np.mean(sizes)),
                "phi": float(np.mean(phis)),
                "found": found / len(queries),
            }
        results[name] = per_variant
    return results
