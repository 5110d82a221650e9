"""Unit tests for the CODU/CODR/CODL-/CODL pipelines."""

import numpy as np
import pytest

from repro.core.pipeline import CODL, CODR, CODU, CODLMinus
from repro.core.problem import CODQuery
from repro.errors import QueryError

from tests.conftest import DB


@pytest.fixture(params=[CODU, CODR, CODLMinus, CODL])
def pipeline(request, paper_graph):
    return request.param(paper_graph, theta=40, seed=0)


class TestCommonBehaviour:
    def test_discover_returns_result(self, pipeline):
        result = pipeline.discover(CODQuery(0, DB, 5))
        assert result.method == pipeline.method_name
        assert result.query == CODQuery(0, DB, 5)
        assert result.elapsed >= 0.0
        assert result.chain_length >= 1

    def test_found_community_contains_query(self, pipeline):
        for q in range(10):
            result = pipeline.discover(CODQuery(q, DB, 3))
            if result.found:
                assert q in set(int(v) for v in result.members)

    def test_k_n_always_found(self, pipeline, paper_graph):
        result = pipeline.discover(CODQuery(0, DB, paper_graph.n))
        assert result.found
        assert result.size >= 2

    def test_size_zero_when_missing(self, pipeline):
        # Whatever the outcome, size and found must agree.
        result = pipeline.discover(CODQuery(8, DB, 1))
        assert (result.size > 0) == result.found

    def test_multi_k_matches_query_ks(self, pipeline):
        results = pipeline.discover_multi(0, DB, [1, 3, 5])
        assert sorted(results) == [1, 3, 5]
        for k, result in results.items():
            assert result.query.k == k

    def test_multi_k_sizes_monotone(self, pipeline):
        results = pipeline.discover_multi(0, DB, [1, 2, 3, 4, 5])
        sizes = [results[k].size for k in (1, 2, 3, 4, 5) if results[k].found]
        assert sizes == sorted(sizes)

    def test_empty_ks_rejected(self, pipeline):
        with pytest.raises(QueryError):
            pipeline.discover_multi(0, DB, [])

    def test_invalid_node_rejected(self, pipeline):
        with pytest.raises(QueryError):
            pipeline.discover(CODQuery(99, DB, 5))


class TestDiscoverBatch:
    def test_base_batch_equals_loop(self, paper_graph):
        from repro.core.pipeline import CODLMinus

        pipeline = CODLMinus(paper_graph, theta=40, seed=3)
        queries = [CODQuery(q, DB, 5) for q in (0, 3, 7)]
        batch = pipeline.discover_batch(queries)
        assert [r.query.node for r in batch] == [0, 3, 7]
        assert all(r.method == "CODL-" for r in batch)

    def test_codu_pooled_batch(self, paper_graph):
        pipeline = CODU(paper_graph, theta=40, seed=3)
        queries = [CODQuery(q, DB, 5) for q in range(10)]
        batch = pipeline.discover_batch(queries)
        assert len(batch) == 10
        for result, query in zip(batch, queries):
            assert result.query == query
            if result.found:
                assert query.node in set(int(v) for v in result.members)

    def test_codu_pooled_batch_validates(self, paper_graph):
        pipeline = CODU(paper_graph, theta=5, seed=3)
        with pytest.raises(QueryError):
            pipeline.discover_batch([CODQuery(99, DB, 5)])


class TestCODU:
    def test_attribute_ignored(self, paper_graph):
        pipeline = CODU(paper_graph, theta=40, seed=1)
        a = pipeline.discover(CODQuery(0, DB, 3))
        b = pipeline.discover(CODQuery(0, 1, 3))
        assert a.size == b.size

    def test_attribute_optional(self, paper_graph):
        pipeline = CODU(paper_graph, theta=40, seed=1)
        result = pipeline.discover(CODQuery(0, None, 5))
        assert result.chain_length >= 1

    def test_hierarchy_shared(self, paper_graph):
        pipeline = CODU(paper_graph, theta=10, seed=1)
        h1 = pipeline.hierarchy
        pipeline.discover(CODQuery(0, None, 3))
        assert pipeline.hierarchy is h1


class TestCODR:
    def test_requires_attribute(self, paper_graph):
        pipeline = CODR(paper_graph, theta=10, seed=1)
        with pytest.raises(QueryError):
            pipeline.discover(CODQuery(0, None, 3))

    def test_hierarchy_cached_per_attribute(self, paper_graph):
        pipeline = CODR(paper_graph, theta=10, seed=1)
        h1 = pipeline.hierarchy_for(DB)
        assert pipeline.hierarchy_for(DB) is h1

    def test_cache_disabled(self, paper_graph):
        pipeline = CODR(paper_graph, cache_hierarchies=False, theta=10, seed=1)
        h1 = pipeline.hierarchy_for(DB)
        assert pipeline.hierarchy_for(DB) is not h1


class TestCODL:
    def test_index_built_once(self, paper_graph):
        pipeline = CODL(paper_graph, theta=40, seed=1)
        index = pipeline.index
        pipeline.discover(CODQuery(0, DB, 3))
        assert pipeline.index is index
        assert pipeline.index_build_seconds is not None

    def test_matches_codl_minus_shapewise(self, paper_graph):
        # CODL and CODL- share LORE; with generous sampling their answers
        # should usually coincide in size (allow +-30% and the occasional
        # structural difference from index vs chain granularity).
        codl = CODL(paper_graph, theta=300, seed=2)
        minus = CODLMinus(paper_graph, theta=300, seed=2)
        agreements = 0
        for q in range(10):
            a = codl.discover(CODQuery(q, DB, 3))
            b = minus.discover(CODQuery(q, DB, 3))
            if a.found == b.found:
                agreements += 1
        assert agreements >= 7

    def test_requires_attribute(self, paper_graph):
        pipeline = CODL(paper_graph, theta=10, seed=1)
        with pytest.raises(QueryError):
            pipeline.discover(CODQuery(0, None, 3))
