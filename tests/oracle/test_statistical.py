"""Statistical oracle: RR estimates vs exact possible-world enumeration.

On graphs tiny enough to enumerate every possible world, Theorem 1 gives
the exact spread ``sigma_C(q)``; the scaled RR count
``count * |V| / Theta`` is a mean of Theta i.i.d. Bernoulli indicators
scaled by ``|V|``, so it must land within a few binomial standard errors
of the exact value. Tolerances are 4 sigma — a deterministic seed keeps
this from flaking while still catching any systematic bias (e.g. a
sampler that forgets to flip edges toward already-active nodes).
"""

import math

import numpy as np
import pytest

from repro.core.compressed import compressed_cod
from repro.graph.graph import AttributedGraph
from repro.influence.arena import sample_arena

from tests.oracle.reference import ReferenceChain, enumerate_exact_spread

THETA = 40_000


def _tolerance(sigma: float, n: int, theta: int) -> float:
    """4 binomial standard errors of the scaled RR estimator."""
    p = sigma / n
    return 4.0 * n * math.sqrt(p * (1.0 - p) / theta) + 1e-9


def _tiny_graphs() -> list[tuple[str, AttributedGraph]]:
    return [
        ("path4", AttributedGraph(4, [(0, 1), (1, 2), (2, 3)])),
        ("star5", AttributedGraph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])),
        ("triangle+tail", AttributedGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])),
        ("square+chord", AttributedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])),
    ]


@pytest.mark.parametrize(
    "name,graph", _tiny_graphs(), ids=[name for name, _ in _tiny_graphs()]
)
def test_global_spread_matches_enumeration(name, graph):
    arena = sample_arena(graph, THETA, rng=1234)
    counts = arena.influence_counts()
    for q in range(graph.n):
        exact = enumerate_exact_spread(graph, q)
        estimate = counts.get(q, 0) * graph.n / THETA
        assert abs(estimate - exact) <= _tolerance(exact, graph.n, THETA), (
            f"{name} q={q}: estimate {estimate:.4f} vs exact {exact:.4f}"
        )



def _restricted_sampler(name: str):
    """An RNG-stream sampler drawing ``count`` samples sourced in ``allowed``."""
    return {"compatible": sample_arena, "fast": sample_arena_fast}[name]


@pytest.mark.parametrize("sampler", ["compatible", "fast"])
@pytest.mark.parametrize(
    "name,graph", _tiny_graphs(), ids=[name for name, _ in _tiny_graphs()]
)
def test_restricted_spread_matches_enumeration(name, graph, sampler):
    """Theorem 2 on a sampler's own ``allowed`` draw: sources uniform over
    ``C`` and edges kept only inside ``C`` estimate ``sigma_C(q)``."""
    allowed = set(range(graph.n - 1))
    arena = _restricted_sampler(sampler)(graph, THETA, rng=4321, allowed=allowed)
    counts = arena.influence_counts()
    assert set(counts) <= allowed
    for q in sorted(allowed):
        exact = enumerate_exact_spread(graph, q, restrict_to=allowed)
        estimate = counts.get(q, 0) * len(allowed) / THETA
        assert abs(estimate - exact) <= _tolerance(exact, len(allowed), THETA), (
            f"{name} q={q}: estimate {estimate:.4f} vs exact {exact:.4f}"
        )


def test_community_spread_matches_enumeration():
    """Theorem 2: induced RR counts estimate the *restricted* spread."""
    graph = AttributedGraph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    q = 1
    chain = ReferenceChain.from_member_lists(
        graph.n, q, [[0, 1, 2], [0, 1, 2, 3], [0, 1, 2, 3, 4]]
    )
    evaluation = compressed_cod(
        graph,
        chain,
        k=1,
        rr_graphs=sample_arena(graph, THETA, rng=99),
    )
    for level in range(len(chain)):
        members = set(int(v) for v in chain.members(level))
        exact = enumerate_exact_spread(graph, q, restrict_to=members)
        estimate = evaluation.query_influence(level)
        assert abs(estimate - exact) <= _tolerance(exact, graph.n, THETA), (
            f"level {level}: estimate {estimate:.4f} vs exact {exact:.4f}"
        )


def test_estimates_are_unbiased_across_seeds():
    """The estimator's error changes sign across seeds (no systematic bias)."""
    graph = AttributedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    exact = enumerate_exact_spread(graph, 0)
    errors = []
    for seed in range(12):
        arena = sample_arena(graph, 4_000, rng=seed)
        estimate = arena.influence_counts().get(0, 0) * graph.n / 4_000
        errors.append(estimate - exact)
    assert min(errors) < 0 < max(errors)
    assert abs(float(np.mean(errors))) <= _tolerance(exact, graph.n, 12 * 4_000)


# --------------------------------------------------------------------------
# Fast-vs-compatible two-sample equivalence harness.
#
# `sample_arena_fast` / `sample_arena_seeded_fast` are explicitly *not*
# bit-identical to the compatible sampler — they reorder and batch the
# Bernoulli trials — so their oracle is statistical: both samplers must
# draw from the same RR-graph distribution. We compare, per seeded
# graph:
#
#   * per-node RR coverage frequencies (two-proportion z-tests),
#   * the RR-set size distribution (two-sample Kolmogorov–Smirnov),
#   * HFS level histograms over a fixed chain (two-proportion z-tests).
#
# Tolerance rationale
# -------------------
# All seeds are fixed, so every assertion is deterministic — thresholds
# choose which *realized* deviation would have failed, they do not set a
# flake rate. They are still sized like hypothesis tests so a systematic
# bug cannot hide inside them:
#
#   * z-tests use |z| <= 4.75. Across the full grid we run roughly 500
#     node/level comparisons; under the null the expected maximum of ~500
#     standard normals is ~3.3 sigma, and P(any |z| > 4.75) ~ 1e-3. A
#     sampler that, say, drops one node's incoming trials shifts that
#     node's coverage by far more than 4.75 standard errors at N = 6000
#     (e.g. a 20% relative coverage error on p = 0.3 is ~34 sigma).
#   * the KS statistic uses the classical two-sample bound
#     D <= c(alpha) * sqrt((n1 + n2) / (n1 * n2)) with alpha = 1e-3,
#     c(alpha) = sqrt(ln(2 / alpha) / 2) ~ 1.949 (scipy-free; KS on a
#     discrete size distribution is conservative, which only widens the
#     real margin).
#
# Sixteen cases (10 graph seeds, the seeded-fast arm and the restricted
# arm) keep one
# lucky agreement from masking a distribution bug that only shows on
# some topology.
# --------------------------------------------------------------------------

from repro.influence.fastsample import (  # noqa: E402
    sample_arena_fast,
    sample_arena_seeded_fast,
)

from tests.oracle.reference import random_case_graph  # noqa: E402

N_TWO_SAMPLE = 6_000
Z_MAX = 4.75
KS_ALPHA = 1e-3

_CASE_SEEDS = range(10)


def _coverage(arena, n: int) -> np.ndarray:
    return np.bincount(arena.nodes, minlength=n) / arena.n_samples


def _max_coverage_z(a, b, n: int) -> float:
    pa, pb = _coverage(a, n), _coverage(b, n)
    pooled = (pa * a.n_samples + pb * b.n_samples) / (a.n_samples + b.n_samples)
    se = np.sqrt(
        pooled * (1.0 - pooled) * (1.0 / a.n_samples + 1.0 / b.n_samples)
    )
    z = np.abs(pa - pb) / np.maximum(se, 1e-12)
    return float(z[pooled > 0].max(initial=0.0))


def _ks_statistic(x: np.ndarray, y: np.ndarray) -> float:
    grid = np.unique(np.concatenate([x, y]))
    fx = np.searchsorted(np.sort(x), grid, side="right") / len(x)
    fy = np.searchsorted(np.sort(y), grid, side="right") / len(y)
    return float(np.abs(fx - fy).max())


def _ks_bound(n1: int, n2: int, alpha: float = KS_ALPHA) -> float:
    return math.sqrt(math.log(2.0 / alpha) / 2.0) * math.sqrt(
        (n1 + n2) / (n1 * n2)
    )


def _per_sample_level_counts(
    arena, node_levels: np.ndarray, n_levels: int
) -> np.ndarray:
    """``(n_samples, n_levels + 1)`` entry counts per HFS level."""
    levels = arena.hfs_levels(node_levels, n_levels)
    key = arena.entry_samples * (n_levels + 1) + levels
    return np.bincount(
        key, minlength=arena.n_samples * (n_levels + 1)
    ).reshape(arena.n_samples, n_levels + 1)


@pytest.mark.parametrize("seed", _CASE_SEEDS)
def test_fast_matches_compatible_two_sample(seed):
    """Coverage, size, and HFS-level agreement on one seeded case."""
    graph = random_case_graph(seed)
    compat = sample_arena(graph, N_TWO_SAMPLE, rng=seed)
    fast = sample_arena_fast(graph, N_TWO_SAMPLE, rng=seed + 10_000)

    # Per-node RR coverage frequencies.
    assert _max_coverage_z(compat, fast, graph.n) <= Z_MAX

    # RR-set size distribution.
    sizes_c = np.diff(compat.node_offsets)
    sizes_f = np.diff(fast.node_offsets)
    assert _ks_statistic(sizes_c, sizes_f) <= _ks_bound(
        N_TWO_SAMPLE, N_TWO_SAMPLE
    )

    # HFS level histograms over a fixed three-level chain (nodes binned by
    # id; the sentinel bin n_levels = "unreachable inside the chain" is
    # compared too — it is where a reachability bug would surface).
    # Entries *within* one sample are correlated, so the independent unit
    # is the sample: compare the per-sample count of entries at each level
    # with a CLT z-test using empirical variances.
    node_levels = np.arange(graph.n, dtype=np.int64) % 3
    per_c = _per_sample_level_counts(compat, node_levels, 3)
    per_f = _per_sample_level_counts(fast, node_levels, 3)
    se = np.sqrt(
        per_c.var(axis=0) / len(per_c) + per_f.var(axis=0) / len(per_f)
    )
    z = np.abs(per_c.mean(axis=0) - per_f.mean(axis=0)) / np.maximum(
        se, 1e-12
    )
    assert float(z.max()) <= Z_MAX


@pytest.mark.parametrize("seed", [0, 3, 6])
def test_seeded_fast_matches_compatible_coverage(seed):
    """The hash-keyed seeded-fast stream draws the same distribution."""
    graph = random_case_graph(seed)
    compat = sample_arena(graph, N_TWO_SAMPLE, rng=seed)
    fast = sample_arena_seeded_fast(
        graph, count=N_TWO_SAMPLE, base_seed=seed + 77
    )
    assert _max_coverage_z(compat, fast, graph.n) <= Z_MAX
    assert _ks_statistic(
        np.diff(compat.node_offsets), np.diff(fast.node_offsets)
    ) <= _ks_bound(N_TWO_SAMPLE, N_TWO_SAMPLE)


@pytest.mark.parametrize("seed", [1, 4, 7])
def test_fast_matches_compatible_restricted(seed):
    """Under an ``allowed`` set both stream samplers draw one distribution."""
    graph = random_case_graph(seed)
    rng = np.random.default_rng(seed)
    allowed = set(rng.choice(graph.n, size=graph.n // 2 + 1, replace=False).tolist())
    compat = sample_arena(graph, N_TWO_SAMPLE, rng=seed, allowed=allowed)
    fast = sample_arena_fast(graph, N_TWO_SAMPLE, rng=seed + 10_000, allowed=allowed)
    assert set(np.unique(fast.nodes).tolist()) <= allowed
    assert _max_coverage_z(compat, fast, graph.n) <= Z_MAX
    assert _ks_statistic(
        np.diff(compat.node_offsets), np.diff(fast.node_offsets)
    ) <= _ks_bound(N_TWO_SAMPLE, N_TWO_SAMPLE)


def test_fast_spread_matches_enumeration():
    """The fast sampler also satisfies the *absolute* oracle (Theorem 1)."""
    for gname, graph in _tiny_graphs()[:2]:
        arena = sample_arena_fast(graph, THETA, rng=5)
        counts = arena.influence_counts()
        for q in range(graph.n):
            exact = enumerate_exact_spread(graph, q)
            estimate = counts.get(q, 0) * graph.n / THETA
            assert abs(estimate - exact) <= _tolerance(
                exact, graph.n, THETA
            ), f"{gname} q={q}"


@pytest.mark.parametrize(
    "name,graph", _tiny_graphs(), ids=[name for name, _ in _tiny_graphs()]
)
def test_seeded_fast_spread_matches_enumeration(name, graph):
    """The hash-keyed sampler satisfies the absolute oracle too."""
    arena = sample_arena_seeded_fast(graph, count=THETA, base_seed=6)
    counts = arena.influence_counts()
    for q in range(graph.n):
        exact = enumerate_exact_spread(graph, q)
        estimate = counts.get(q, 0) * graph.n / THETA
        assert abs(estimate - exact) <= _tolerance(exact, graph.n, THETA), (
            f"{name} q={q}: estimate {estimate:.4f} vs exact {exact:.4f}"
        )
